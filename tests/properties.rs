//! Cross-crate property-based tests of the paper's guarantees.
//!
//! These are the load-bearing invariants:
//!   1. every confidence interval contains the exact answer;
//!   2. realized error ≤ reported upper bound;
//!   3. processing more tiles never widens an interval (monotonicity);
//!   4. index structural invariants survive arbitrary query sequences;
//!   5. exact engine ≡ full-scan ground truth.
//!
//! The first and the last also run over data with a drawn share of blank
//! (NULL) value fields.

use pai_core::verify::verify_against_truth;
use pai_storage::build_block_synopses;
use pai_storage::ground_truth::window_truth;
use pai_storage::{ScanPartition, ScanRequest};
use partial_adaptive_indexing::prelude::*;
use proptest::prelude::*;

/// A small clustered dataset; proptest shrinks over windows/phis, not data.
fn fixture(seed: u64) -> (MemFile, DatasetSpec) {
    let spec = fixture_spec(seed);
    let file = spec.build_mem(CsvFormat::default()).unwrap();
    (file, spec)
}

fn fixture_spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        rows: 1_500,
        columns: 4,
        seed,
        ..Default::default()
    }
}

/// [`fixture`]'s rows with about `null_pct` % of the value fields blank
/// (NULL), as CSV and as a PaiZone image of the same rows.
fn fixture_with_nulls(seed: u64, null_pct: u64) -> (MemFile, ZoneFile, DatasetSpec) {
    let spec = fixture_spec(seed);
    let mut rows = spec.rows_physical();
    for (r, row) in rows.iter_mut().enumerate() {
        for (c, v) in row.iter_mut().enumerate().skip(2) {
            // SplitMix64 of (seed, row, column): a stable pick per field.
            let mut z =
                ((seed << 40) ^ ((r as u64) << 8) ^ c as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            if (z ^ (z >> 31)) % 100 < null_pct {
                *v = f64::NAN;
            }
        }
    }
    let zone = ZoneFile::from_rows(&spec.schema(), rows.clone()).unwrap();
    // The CSV writer renders a NULL as `NaN`; a blank field is the CSV NULL.
    let csv = MemFile::from_rows(spec.schema(), CsvFormat::default(), rows).unwrap();
    let text = String::from_utf8(csv.bytes().to_vec())
        .unwrap()
        .replace("NaN", "");
    let file = MemFile::from_text(text, spec.schema(), CsvFormat::default());
    (file, zone, spec)
}

fn null_pct_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..70]
}

fn build_index(file: &dyn RawFile, spec: &DatasetSpec, n: usize) -> ValinorIndex {
    build_index_with(file, spec, n, MetadataPolicy::AllNumeric)
}

fn build_index_with(
    file: &dyn RawFile,
    spec: &DatasetSpec,
    n: usize,
    metadata: MetadataPolicy,
) -> ValinorIndex {
    let cfg = InitConfig {
        grid: GridSpec::Fixed { nx: n, ny: n },
        domain: Some(spec.domain),
        metadata,
    };
    build(file, &cfg).unwrap().0
}

/// Every aggregate the NULL rules touch, over both value columns.
const NULL_AGGS: [AggregateFunction; 7] = [
    AggregateFunction::Count,
    AggregateFunction::Sum(2),
    AggregateFunction::Mean(2),
    AggregateFunction::Min(2),
    AggregateFunction::Max(3),
    AggregateFunction::Mean(3),
    AggregateFunction::Sum(3),
];

fn window_strategy() -> impl Strategy<Value = Rect> {
    (0.0f64..900.0, 0.0f64..900.0, 10.0f64..600.0, 10.0f64..600.0)
        .prop_map(|(x0, y0, w, h)| Rect::new(x0, (x0 + w).min(1000.0), y0, (y0 + h).min(1000.0)))
}

/// Every answer the synopsis tier composes on its own — φ = ∞, all of
/// [`NULL_AGGS`] at once and each alone — over `file` contains the truth.
fn synopsis_answers_hold<F: RawFile + Clone>(
    file: &F,
    spec: &DatasetSpec,
    grid: usize,
    window: &Rect,
) {
    let index = build_index_with(file, spec, grid, MetadataPolicy::None);
    let shared = SharedIndex::new(index, file.clone(), EngineConfig::paper_evaluation()).unwrap();
    for aggs in std::iter::once(&NULL_AGGS[..]).chain(NULL_AGGS.chunks(1)) {
        if let Some(res) = shared.estimate_synopsis(window, aggs).unwrap() {
            let report = verify_against_truth(file, window, aggs, &res).unwrap();
            assert!(report.all_ok(), "{aggs:?}: {report:?}");
        }
    }
}

/// Byte offset of the synopsis section of a PaiZone v2 image, just past
/// its `sect_len`, `n_buckets` and `sample_cap` fields (docs/FORMATS.md:
/// a 32-byte fixed header, the column names, then a 17-byte block-table
/// entry per column and block).
fn synopsis_records_at(schema: &Schema, n_blocks: usize) -> usize {
    let names: usize = schema.columns().iter().map(|c| 2 + c.name.len()).sum();
    32 + names + schema.len() * n_blocks * 17 + 16
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The synopsis tier is sound on every query it answers, not only on
    /// the hits the adaptive path happens to try: CSV and PaiZone, with a
    /// drawn NULL share.
    #[test]
    fn prop_synopsis_answers_contain_truth(
        window in window_strategy(),
        grid in 2usize..9,
        seed in 0u64..4,
        null_pct in null_pct_strategy(),
    ) {
        let (file, zone, spec) = fixture_with_nulls(seed, null_pct);
        synopsis_answers_hold(&file, &spec, grid, &window);
        synopsis_answers_hold(&zone, &spec, grid, &window);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile synopsis records — inverted, NaN or infinite envelopes and
    /// moments, counts above the rows, histogram buckets that overflow or do
    /// not add up to the count — in a PaiZone image: opening it, evaluating
    /// with the synopsis tier on and asking the synopses alone each return
    /// `Ok` or `Err`, never panic.
    #[test]
    fn prop_hostile_synopsis_records_never_panic(
        every_block in (2usize..4, 0usize..5, 0usize..7),
        axis_buckets in (0usize..3, 0usize..3),
        edits in prop::collection::vec((0usize..4, 0usize..24, 0usize..5, 0usize..7), 0..8),
        window in window_strategy(),
        phi in prop_oneof![Just(0.0), Just(0.05), Just(0.5)],
        metadata in prop_oneof![Just(MetadataPolicy::AllNumeric), Just(MetadataPolicy::None)],
    ) {
        // Z-ordered rows in 64-row blocks: windows cover whole blocks.
        let spec = DatasetSpec { order: RowOrder::ZOrder, ..fixture_spec(1) };
        let schema = spec.schema();
        let mut bytes =
            pai_storage::zone::encode_zone_rows_with(&schema, spec.rows_physical(), 64).unwrap();
        let at = synopsis_records_at(&schema, 24);
        let n_buckets = u32::from_le_bytes(bytes[at - 8..at - 4].try_into().unwrap()) as usize;
        // One field of a value column in every block, then a few single
        // records of any column.
        let (col, field, pick) = every_block;
        let all = (0..24).map(|block| (col, block, field, pick));
        for (col, block, field, pick) in all.chain(edits) {
            // Fields: min, max, count, sum, sum_sq.
            let off = at + (col * 24 + block) * (40 + 8 * n_buckets) + 8 * field;
            let old = f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            let new = match field {
                2 => [65, 1 << 40, u64::MAX, 0, 5, 64, 63][pick],
                _ => [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -old,
                    old + 1e9,
                    -1e300,
                    f64::MAX,
                ][pick]
                .to_bits(),
            };
            bytes[off..off + 8].copy_from_slice(&new.to_le_bytes());
        }
        // The buckets of one axis column (2: none) in every block: one at
        // u64::MAX, a pair at 2^63, or the first one more than the count.
        let (axis, kind) = axis_buckets;
        for block in (0..24).filter(|_| axis < 2) {
            let first = at + (axis * 24 + block) * (40 + 8 * n_buckets) + 40;
            let bucket = |i: usize| first + 8 * i..first + 8 * i + 8;
            let one_more = u64::from_le_bytes(bytes[bucket(0)].try_into().unwrap()) + 1;
            let set: &[(usize, u64)] = match kind {
                0 => &[(0, u64::MAX)],
                1 => &[(0, 1 << 63), (1, 1 << 63)],
                _ => &[(0, one_more)],
            };
            for &(i, v) in set {
                bytes[bucket(i)].copy_from_slice(&v.to_le_bytes());
            }
        }
        // A rejected image or build is an answer too.
        if let Ok(zone) = ZoneFile::from_bytes(bytes) {
            let cfg = InitConfig {
                grid: GridSpec::Fixed { nx: 4, ny: 4 },
                domain: Some(spec.domain),
                metadata,
            };
            if let Ok((index, _)) = build(&zone, &cfg) {
                hostile_queries_return(index, zone, &window, phi);
            }
        }
    }
}

/// Runs every aggregate over `zone` with the synopsis tier on, adaptively
/// and from the synopses alone, ignoring what each call returns.
fn hostile_queries_return(index: ValinorIndex, zone: ZoneFile, window: &Rect, phi: f64) {
    let aggs = [
        AggregateFunction::Count,
        AggregateFunction::Sum(2),
        AggregateFunction::Mean(3),
        AggregateFunction::Min(2),
        AggregateFunction::Max(3),
        AggregateFunction::Variance(2),
        AggregateFunction::StdDev(3),
    ];
    let config = EngineConfig::paper_evaluation().with_synopsis();
    let mut engine = ApproximateEngine::new(index.clone(), &zone, config.clone()).unwrap();
    let _ = engine.evaluate(window, &aggs, phi);
    let shared = SharedIndex::new(index, zone, config).unwrap();
    let _ = shared.estimate_synopsis(window, &aggs);
    for agg in aggs {
        let _ = shared.estimate_synopsis(window, &[agg]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Guarantee 1 + 2 over random windows, phis, grids and NULL shares;
    /// the second leg runs the same rows as a PaiZone file with the
    /// synopsis tier on, from either metadata policy.
    #[test]
    fn prop_ci_contains_truth(
        window in window_strategy(),
        phi in prop_oneof![Just(0.0), 0.001f64..0.3],
        grid in 2usize..9,
        seed in 0u64..4,
        null_pct in null_pct_strategy(),
        zone_metadata in prop_oneof![Just(MetadataPolicy::AllNumeric), Just(MetadataPolicy::None)],
    ) {
        let (file, zone, spec) = fixture_with_nulls(seed, null_pct);
        let index = build_index(&file, &spec, grid);
        let mut engine =
            ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation()).unwrap();
        let res = engine.evaluate(&window, &NULL_AGGS, phi).unwrap();
        prop_assert!(res.met_constraint);
        let report = verify_against_truth(&file, &window, &NULL_AGGS, &res).unwrap();
        prop_assert!(report.all_ok(), "{report:?}");

        let index = build_index_with(&zone, &spec, grid, zone_metadata);
        let config = EngineConfig::paper_evaluation().with_synopsis();
        let mut engine = ApproximateEngine::new(index, &zone, config).unwrap();
        let res = engine.evaluate(&window, &NULL_AGGS, phi).unwrap();
        prop_assert!(res.met_constraint);
        let report = verify_against_truth(&zone, &window, &NULL_AGGS, &res).unwrap();
        prop_assert!(report.all_ok(), "zone: {report:?}");
    }

    /// Guarantee 3: a tighter phi on a fresh index processes at least as
    /// many tiles and ends with an equal-or-smaller bound.
    #[test]
    fn prop_tighter_phi_monotone(
        window in window_strategy(),
        seed in 0u64..4,
        (phi_loose, phi_tight) in (0.02f64..0.4).prop_flat_map(|hi| (Just(hi), 0.0f64..hi)),
    ) {
        let (file, spec) = fixture(seed);
        let aggs = [AggregateFunction::Sum(2)];

        let run = |phi: f64| {
            let index = build_index(&file, &spec, 5);
            let mut engine =
                ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation()).unwrap();
            let res = engine.evaluate(&window, &aggs, phi).unwrap();
            (res.stats.tiles_processed, res.error_bound)
        };
        let (proc_loose, bound_loose) = run(phi_loose);
        let (proc_tight, bound_tight) = run(phi_tight);
        prop_assert!(proc_tight >= proc_loose,
            "tight {proc_tight} < loose {proc_loose}");
        prop_assert!(bound_tight <= bound_loose + 1e-12);
    }

    /// Guarantee 4: index invariants after random query sequences mixing
    /// exact and approximate evaluation.
    #[test]
    fn prop_invariants_after_query_sequences(
        windows in prop::collection::vec(window_strategy(), 1..8),
        seed in 0u64..3,
    ) {
        let (file, spec) = fixture(seed);
        let index = build_index(&file, &spec, 4);
        let mut engine =
            ApproximateEngine::new(index, &file, EngineConfig::paper_evaluation()).unwrap();
        for (i, w) in windows.iter().enumerate() {
            let phi = [0.0, 0.05, 0.2][i % 3];
            engine.evaluate(w, &[AggregateFunction::Mean(2)], phi).unwrap();
        }
        prop_assert!(engine.index().validate_invariants().is_ok());
        prop_assert_eq!(engine.index().total_objects(), 1_500);
    }

    /// Guarantee 5: the exact engine equals ground truth on arbitrary
    /// windows and NULL shares: COUNT exactly, SUM and MEAN to float
    /// round-off, MIN and MAX exactly, and a window of only NULLs has no
    /// MEAN, MIN or MAX.
    #[test]
    fn prop_exact_engine_equals_truth(
        window in window_strategy(),
        seed in 0u64..4,
        null_pct in null_pct_strategy(),
    ) {
        let (file, _, spec) = fixture_with_nulls(seed, null_pct);
        let index = build_index(&file, &spec, 4);
        let mut engine = ApproximateEngine::new(index, &file, EngineConfig::default()).unwrap();
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(2),
            AggregateFunction::Max(2),
        ];
        let res = engine.evaluate_exact(&window, &aggs).unwrap();
        let truth = &window_truth(&file, &window, &[2]).unwrap()[0];
        prop_assert_eq!(res.values[0], AggregateValue::Count(truth.selected));
        let close = |got: Option<f64>, want: Option<f64>| match (got, want) {
            (Some(g), Some(w)) => (g - w).abs() < 1e-6 * (1.0 + w.abs()),
            (g, w) => g == w,
        };
        let s = &truth.stats;
        prop_assert!(close(res.values[1].as_f64(), Some(s.sum())), "{:?} vs {s:?}", res.values);
        prop_assert!(close(res.values[2].as_f64(), s.mean()), "{:?} vs {s:?}", res.values);
        prop_assert_eq!(res.values[3].as_f64(), s.min());
        prop_assert_eq!(res.values[4].as_f64(), s.max());
    }

    /// Split policies all preserve objects and produce valid hierarchies.
    #[test]
    fn prop_split_policies_preserve_structure(
        window in window_strategy(),
        policy_ix in 0usize..4,
        seed in 0u64..3,
    ) {
        let policy = [
            SplitPolicy::QueryAligned,
            SplitPolicy::Grid { rows: 2, cols: 2 },
            SplitPolicy::Grid { rows: 3, cols: 3 },
            SplitPolicy::KdMedian,
        ][policy_ix];
        let (file, spec) = fixture(seed);
        let index = build_index(&file, &spec, 4);
        let cfg = EngineConfig {
            adapt: AdaptConfig { split: policy, min_split_objects: 4, ..Default::default() },
            ..EngineConfig::paper_evaluation()
        };
        let mut engine = ApproximateEngine::new(index, &file, cfg).unwrap();
        engine.evaluate(&window, &[AggregateFunction::Sum(2)], 0.0).unwrap();
        prop_assert!(engine.index().validate_invariants().is_ok());
        prop_assert_eq!(engine.index().total_objects(), 1_500);
    }
}

/// One step of a session that explores and ingests.
#[derive(Debug, Clone)]
enum Step {
    Approx(Rect, f64),
    Exact(Rect),
    Ingest(Vec<(f64, f64, f64, f64)>),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (
            window_strategy(),
            prop_oneof![Just(0.05), Just(0.01), Just(0.0)]
        )
            .prop_map(|(w, phi)| Step::Approx(w, phi)),
        window_strategy().prop_map(Step::Exact),
        prop::collection::vec(
            (
                0.0f64..1000.0,
                0.0f64..1000.0,
                -100.0f64..100.0,
                0.0f64..50.0
            ),
            1..40
        )
        .prop_map(Step::Ingest),
    ]
}

/// The window's selected count the way a leaf-only classification takes it:
/// every overlapping leaf, whole when covered, entry by entry when not.
fn leafwise_selected(index: &ValinorIndex, window: &Rect) -> u64 {
    index
        .leaves_overlapping(window)
        .into_iter()
        .map(|id| {
            let tile = index.tile(id);
            if window.contains_rect(&tile.rect) {
                tile.object_count()
            } else {
                tile.selected_count(window)
            }
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The metadata hierarchy under every interleaving a single owner can
    /// produce: approximate queries, exact-engine queries and ingest
    /// batches in random order over one index. After every step the
    /// structural invariants hold — inner counts, parent links, every exact
    /// claim on a leaf or an inner tile accounting for exactly the objects
    /// below it — every CI contains the truth of the rows ingested so far,
    /// φ = 0 equals it, and the hierarchical classification counts what a
    /// leaf-by-leaf one does.
    #[test]
    fn prop_inner_metadata_stays_true_under_queries_and_ingest(
        steps in prop::collection::vec(step_strategy(), 1..10),
        seed in 0u64..3,
        metadata in prop_oneof![Just(MetadataPolicy::AllNumeric), Just(MetadataPolicy::None)],
    ) {
        let (base, spec) = fixture(seed);
        let file = pai_storage::AppendableFile::with_base_rows(base, spec.rows).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 3, ny: 3 },
            domain: Some(spec.domain),
            metadata,
        };
        let mut index = build(&file, &init).unwrap().0;
        let config = EngineConfig {
            adapt: AdaptConfig { min_split_objects: 4, ..Default::default() },
            ..EngineConfig::paper_evaluation()
        };
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(3),
            AggregateFunction::Max(3),
        ];
        let mut ingested = 0u64;
        for (i, step) in steps.iter().enumerate() {
            let probe = match step {
                Step::Approx(window, phi) => {
                    let mut engine = ApproximateEngine::new(index, &file, config.clone()).unwrap();
                    let res = engine.evaluate(window, &aggs, *phi).unwrap();
                    index = engine.into_index();
                    prop_assert!(res.met_constraint, "step {i}");
                    let report = verify_against_truth(&file, window, &aggs, &res).unwrap();
                    prop_assert!(report.all_ok(), "step {i} {step:?}: {report:?}");
                    if *phi == 0.0 {
                        prop_assert!(report.max_realized_error() <= 1e-9, "step {i}: {report:?}");
                    }
                    *window
                }
                Step::Exact(window) => {
                    let mut engine = ApproximateEngine::new(index, &file, config.clone()).unwrap();
                    let res = engine
                        .evaluate_exact(window, &[AggregateFunction::Count, AggregateFunction::Sum(2)])
                        .unwrap();
                    index = engine.into_index();
                    let truth = &window_truth(&file, window, &[2]).unwrap()[0];
                    prop_assert_eq!(res.values[0], AggregateValue::Count(truth.selected));
                    let sum = res.values[1].as_f64().unwrap();
                    prop_assert!(
                        (sum - truth.stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()),
                        "step {i} {step:?}: {sum} vs {}", truth.stats.sum()
                    );
                    *window
                }
                Step::Ingest(rows) => {
                    let rows: Vec<Vec<f64>> =
                        rows.iter().map(|&(x, y, a, b)| vec![x, y, a, b]).collect();
                    let receipt = file.append_rows(&rows).unwrap();
                    index.ingest_rows(&rows, &receipt.locators).unwrap();
                    ingested += rows.len() as u64;
                    spec.domain
                }
            };
            if let Err(e) = index.validate_invariants() {
                panic!("step {i} {step:?}: {e}");
            }
            prop_assert_eq!(
                index.classify(&probe).selected_total,
                leafwise_selected(&index, &probe),
                "step {i}"
            );
        }
        prop_assert_eq!(index.total_objects(), spec.rows + ingested);
    }
}

/// Coordinate values biased toward the edge cases that break pruning and
/// histogram math: NaN, signed zero, exact boundary magnitudes, plus a
/// continuous range.
fn edge_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-0.0f64),
        Just(0.0f64),
        Just(-1000.0f64),
        Just(1000.0f64),
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
        -1000.0f64..1000.0,
    ]
}

/// Arbitrary (possibly empty, degenerate, or NaN-cornered) query intervals.
fn edge_interval() -> impl Strategy<Value = (f64, f64)> {
    (edge_value(), edge_value())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zone-map pruning soundness over adversarial data: whenever *any*
    /// point of a block falls inside the window, the block's envelope must
    /// refuse to prune — including blocks whose columns also contain NaN
    /// or signed zeros.
    #[test]
    fn prop_zone_pruning_never_drops_selected_points(
        points in prop::collection::vec((edge_value(), edge_value()), 1..40),
        (wx, wy) in ((0.0f64..900.0, 10.0f64..600.0), (0.0f64..900.0, 10.0f64..600.0)),
    ) {
        let window = Rect::new(wx.0, wx.0 + wx.1, wy.0, wy.0 + wy.1);
        // The NaN-skipping envelope fold every block-structured backend uses.
        let fold = |vals: &[f64]| {
            vals.iter().filter(|v| !v.is_nan()).fold(
                (f64::NAN, f64::NAN),
                |(lo, hi), &v| (v.min(if lo.is_nan() { v } else { lo }),
                                v.max(if hi.is_nan() { v } else { hi })),
            )
        };
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let (x_lo, x_hi) = fold(&xs);
        let (y_lo, y_hi) = fold(&ys);
        let stats = BlockStats {
            row_start: 0,
            row_end: points.len() as u64,
            min: vec![x_lo, y_lo],
            max: vec![x_hi, y_hi],
        };
        let selected = points
            .iter()
            .any(|&(x, y)| window.contains_point(Point2::new(x, y)));
        if selected {
            prop_assert!(
                stats.may_intersect_window(0, 1, &window),
                "pruned a block holding a selected point: {stats:?} vs {window:?}"
            );
        }
        // Inverted or NaN envelopes must never prune anything.
        let broken = BlockStats {
            row_start: 0,
            row_end: points.len() as u64,
            min: vec![x_hi, f64::NAN],
            max: vec![x_lo, y_hi],
        };
        prop_assert!(broken.may_intersect_window(0, 1, &window));
    }

    /// Histogram mass bounds bracket the true half-open selection count for
    /// arbitrary (NaN-laden, signed-zero, degenerate) columns and intervals,
    /// and never exceed the non-NaN count.
    #[test]
    fn prop_histogram_mass_brackets_true_count(
        values in prop::collection::vec(edge_value(), 0..120),
        buckets in 1usize..12,
        (lo, hi) in edge_interval(),
    ) {
        let syn = ColumnSynopsis::from_values(&values, buckets);
        let truth = values
            .iter()
            .filter(|v| !v.is_nan() && **v >= lo && **v < hi)
            .count() as u64;
        let (lower, upper) = syn.mass_in(lo, hi);
        prop_assert!(upper <= syn.count, "upper {upper} > count {}", syn.count);
        if lo.is_nan() || hi.is_nan() {
            // NaN endpoints degrade to the conservative no-information bound.
            prop_assert_eq!((lower, upper), (0, syn.count));
        } else {
            prop_assert!(lower <= truth, "lower {lower} > truth {truth}");
            prop_assert!(truth <= upper, "truth {truth} > upper {upper}");
        }
    }

    /// Block synopses built over adversarial columns stay answer-sound:
    /// `covered_by` only claims blocks whose every row the window selects,
    /// and `selected_mass` brackets the per-block true selection.
    #[test]
    fn prop_block_synopses_bracket_block_selections(
        points in prop::collection::vec((edge_value(), edge_value()), 1..200),
        block_rows in 16u32..64,
        buckets in 1usize..8,
        (wx, wy) in ((-100.0f64..900.0, 10.0f64..600.0), (-100.0f64..900.0, 10.0f64..600.0)),
    ) {
        let window = Rect::new(wx.0, wx.0 + wx.1, wy.0, wy.0 + wy.1);
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let spec = SynopsisSpec { buckets };
        let blocks = build_block_synopses(&[xs.clone(), ys.clone()], block_rows, &spec);
        prop_assert_eq!(
            blocks.iter().map(|b| b.rows()).sum::<u64>(),
            points.len() as u64,
            "blocks must partition the rows"
        );
        for b in &blocks {
            let range = b.row_start as usize..b.row_end as usize;
            let truth = range
                .clone()
                .filter(|&r| window.contains_point(Point2::new(xs[r], ys[r])))
                .count() as u64;
            if b.covered_by(0, 1, &window) {
                prop_assert_eq!(
                    truth, b.rows(),
                    "covered_by claimed a block the window does not fully select"
                );
            }
            let (lower, upper) = b.selected_mass(0, 1, &window);
            prop_assert!(lower <= truth, "block lower {lower} > truth {truth}");
            prop_assert!(truth <= upper, "block truth {truth} > upper {upper}");
            prop_assert!(upper <= b.rows());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delta-block synopsis soundness over adversarial appends: every
    /// sealed block's zone map brackets the non-NaN values of the rows it
    /// holds (NaN and −0.0 included in the stream), its histogram mass
    /// brackets the true half-open selection count of any interval, and its
    /// axis synopsis never claims coverage or mass the rows don't have —
    /// exactly the guarantees a statically-written PaiZone block gives,
    /// proven here for blocks born online at seal time.
    #[test]
    fn prop_delta_block_synopses_bracket_appended_rows(
        rows in prop::collection::vec(
            (edge_value(), edge_value(), edge_value(), edge_value()), 1..120),
        block_rows in 8u32..32,
        buckets in 1usize..8,
        (lo, hi) in edge_interval(),
        (wx, wy) in ((0.0f64..900.0, 10.0f64..600.0), (0.0f64..900.0, 10.0f64..600.0)),
    ) {
        let spec = DatasetSpec { rows: 50, columns: 4, seed: 3, ..Default::default() };
        let base = spec.build_mem(CsvFormat::default()).unwrap();
        let file = pai_storage::AppendableFile::with_layout(
            base,
            spec.rows,
            block_rows,
            SynopsisSpec { buckets },
        )
        .unwrap();
        let appended: Vec<Vec<f64>> =
            rows.iter().map(|&(a, b, c, d)| vec![a, b, c, d]).collect();
        file.append_rows(&appended).unwrap();

        let window = Rect::new(wx.0, wx.0 + wx.1, wy.0, wy.0 + wy.1);
        let stats = file.delta_block_stats();
        let syns = file.delta_synopses();
        let sealed = rows.len() / block_rows as usize;
        prop_assert_eq!(stats.len(), sealed, "one zone map per sealed block");
        prop_assert_eq!(syns.len(), sealed, "one synopsis per sealed block");

        for (b, (st, syn)) in stats.iter().zip(&syns).enumerate() {
            let br = block_rows as usize;
            let block_rows_slice = &appended[b * br..(b + 1) * br];
            // Pre-compaction, sealed blocks cover contiguous append ranges.
            prop_assert_eq!(st.row_start, spec.rows + (b * br) as u64);
            prop_assert_eq!(st.row_end, spec.rows + ((b + 1) * br) as u64);
            prop_assert_eq!(syn.rows(), br as u64);
            for c in 0..4usize {
                let col = &syn.cols[c];
                let vals: Vec<f64> = block_rows_slice.iter().map(|r| r[c]).collect();
                let non_nan = vals.iter().filter(|v| !v.is_nan()).count() as u64;
                prop_assert_eq!(col.count, non_nan, "block {b} col {c}: count");
                for &v in vals.iter().filter(|v| !v.is_nan()) {
                    prop_assert!(
                        st.min[c] <= v && v <= st.max[c],
                        "block {b} col {c}: envelope [{}, {}] lost value {v}",
                        st.min[c], st.max[c]
                    );
                }
                let truth = vals
                    .iter()
                    .filter(|v| !v.is_nan() && **v >= lo && **v < hi)
                    .count() as u64;
                let (mass_lo, mass_hi) = col.mass_in(lo, hi);
                prop_assert!(mass_hi <= col.count);
                if !lo.is_nan() && !hi.is_nan() {
                    prop_assert!(
                        mass_lo <= truth && truth <= mass_hi,
                        "block {b} col {c}: mass [{mass_lo}, {mass_hi}] lost \
                         truth {truth} for [{lo}, {hi})"
                    );
                }
            }
            // The axis synopsis, as the scan/estimate paths consume it.
            let truth = block_rows_slice
                .iter()
                .filter(|r| window.contains_point(Point2::new(r[0], r[1])))
                .count() as u64;
            let (sel_lo, sel_hi) = syn.selected_mass(0, 1, &window);
            prop_assert!(sel_lo <= truth && truth <= sel_hi);
            if syn.covered_by(0, 1, &window) {
                prop_assert_eq!(truth, syn.rows(), "covered_by over-claimed");
            }
            if truth > 0 {
                prop_assert!(
                    st.may_intersect_window(0, 1, &window),
                    "block {b}: pruned a block holding a selected appended row"
                );
            }
        }
    }

    /// Compaction is idempotent and answer-invariant: one compaction
    /// re-clusters every sealed delta block, a second (with nothing new
    /// appended) is a no-op that changes no byte of metadata, and both a
    /// pruned scan and an exact engine planned *before* the generation swap
    /// see the same rows afterwards — compaction permutes layout, never
    /// content.
    #[test]
    fn prop_compaction_idempotent_and_answer_invariant(
        appended in prop::collection::vec(
            (0.0f64..1000.0, 0.0f64..1000.0, -100.0f64..100.0), 48..120),
        block_rows in 8u32..32,
        window in window_strategy(),
        probe in window_strategy(),
        seed in 0u64..3,
    ) {
        let (base, spec) = fixture(seed);
        let file = pai_storage::AppendableFile::with_layout(
            base,
            spec.rows,
            block_rows,
            SynopsisSpec::default(),
        )
        .unwrap();
        let rows: Vec<Vec<f64>> = appended
            .iter()
            .map(|&(x, y, v)| vec![x.min(999.9), y.min(999.9), v, 0.5])
            .collect();
        file.append_rows(&rows).unwrap();

        // An exact engine planned against the pre-compaction layout: its
        // index entries hold locators that must survive the swap.
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 4, ny: 4 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (index, _) = build(&file, &init).unwrap();
        let mut engine = ApproximateEngine::new(index, &file, EngineConfig::default()).unwrap();
        let aggs = [AggregateFunction::Count, AggregateFunction::Sum(2)];
        let before_engine = engine.evaluate_exact(&window, &aggs).unwrap();

        let before = window_truth(&file, &window, &[2]).unwrap();
        let gen_before = file.generation();
        let first = file.compact_once(&spec.domain, 1).unwrap();
        prop_assert!(first.is_some(), "a sealed run must compact");
        let report = first.unwrap();
        prop_assert_eq!(report.generation, gen_before + 1);
        prop_assert_eq!(file.generation(), report.generation);
        let stats_once = file.delta_block_stats();

        // compact ∘ compact ≡ compact: nothing cold is left, so the second
        // pass must decline and leave every block byte-identical.
        let second = file.compact_once(&spec.domain, 1).unwrap();
        prop_assert!(second.is_none(), "recompaction must be a no-op");
        prop_assert_eq!(file.generation(), report.generation, "no-op must not bump");
        prop_assert_eq!(&file.delta_block_stats(), &stats_once);

        // Answers are layout-invariant: the pruned scan sees the same rows
        // (counts and extrema exactly; sums to fold-order tolerance)...
        let after = window_truth(&file, &window, &[2]).unwrap();
        prop_assert_eq!(after[0].selected, before[0].selected);
        prop_assert_eq!(after[0].stats.min(), before[0].stats.min());
        prop_assert_eq!(after[0].stats.max(), before[0].stats.max());
        let (s0, s1) = (before[0].stats.sum(), after[0].stats.sum());
        prop_assert!((s0 - s1).abs() <= 1e-9 * (1.0 + s0.abs()), "{s0} vs {s1}");

        // ... and the engine that planned before the swap redeems its
        // locators against the permuted layout without noticing: the same
        // window re-answers identically, and a fresh window still matches
        // a ground-truth scan.
        let after_engine = engine.evaluate_exact(&window, &aggs).unwrap();
        prop_assert_eq!(&after_engine.values[0], &before_engine.values[0]);
        let (e0, e1) = (
            before_engine.values[1].as_f64().unwrap(),
            after_engine.values[1].as_f64().unwrap(),
        );
        prop_assert!((e0 - e1).abs() <= 1e-9 * (1.0 + e0.abs()), "{e0} vs {e1}");
        let probed = engine.evaluate_exact(&probe, &aggs).unwrap();
        let truth = &window_truth(&file, &probe, &[2]).unwrap()[0];
        prop_assert_eq!(&probed.values[0], &AggregateValue::Count(truth.selected));
        let (p, t) = (probed.values[1].as_f64().unwrap(), truth.stats.sum());
        prop_assert!((p - t).abs() <= 1e-6 * (1.0 + p.abs()), "{p} vs {t}");
    }
}

/// Records as (locator, value bits), and whether the scan stopped at a record
/// that does not parse.
type Scanned = (Vec<(u64, Vec<u64>)>, bool);

/// What a batch scan of `file` decoding `attrs` delivers, record by record,
/// and whether it stopped at a bad one: a full scan when `parts` is `None`,
/// else the partitions of `partitions(n)` scanned one after the other until
/// one stops.
fn scanned_records(file: &dyn RawFile, parts: Option<usize>, attrs: &[usize]) -> Scanned {
    let mut seen = Vec::new();
    let mut scan = |partition| {
        let request = ScanRequest {
            partition,
            window: None,
            attrs,
        };
        file.scan_batches(&request, &mut |batch| {
            for i in 0..batch.len() {
                let bits = (0..attrs.len()).map(|k| batch.column(k)[i].to_bits());
                seen.push((batch.locator(i).raw(), bits.collect()));
            }
            Ok(())
        })
        .is_err()
    };
    let stopped = match parts {
        None => scan(ScanPartition::WHOLE),
        Some(n) => {
            let parts = file.partitions(n).unwrap();
            assert!(parts.len() <= n);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start, "partitions are contiguous");
            }
            parts.into_iter().any(&mut scan)
        }
    };
    (seen, stopped)
}

/// Line bodies the adversarial CSV texts are drawn from.
const LINE_SHAPES: [&str; 8] = [
    "1,2,3",
    "-0.5,1e3,",
    "",
    "\"a,b\",2,\"x\"\"y\"",
    "7,\"q\",8",
    ",,",
    "1234567.890123,42,0.000001",
    "\r",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partitioned CSV scan is the serial scan: the same (locator,
    /// fields) sequence and the same meters for *every* partition count —
    /// which puts the cut guesses on, one byte before and one byte after
    /// every newline, and makes partitions smaller than one record — over
    /// text with CRLF endings, blank lines, quoted fields holding
    /// delimiters, and no trailing newline; in memory and on disk.
    #[test]
    fn prop_partitioned_csv_scan_matches_serial_scan(
        lines in prop::collection::vec(0usize..LINE_SHAPES.len(), 0..9),
        crlf in prop::collection::vec(0u32..2, 9..10),
        trailing_newline in 0u32..2,
        has_header in 0u32..2,
    ) {
        let (trailing_newline, has_header) = (trailing_newline == 1, has_header == 1);
        let mut text = String::new();
        if has_header {
            text.push_str("col0,col1,col2\n");
        }
        for (i, &shape) in lines.iter().enumerate() {
            text.push_str(LINE_SHAPES[shape]);
            if i + 1 < lines.len() || trailing_newline {
                text.push_str(if crlf[i] == 1 { "\r\n" } else { "\n" });
            }
        }
        let fmt = CsvFormat { has_header, ..CsvFormat::default() };
        let schema = Schema::synthetic(3);
        let dir = std::env::temp_dir().join("pai_properties_scan");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case-{}-{}.csv", std::process::id(), text.len()));
        std::fs::write(&path, &text).unwrap();
        let open: [&dyn Fn() -> Box<dyn RawFile>; 2] = [
            &|| Box::new(MemFile::from_text(text.clone(), schema.clone(), fmt)),
            &|| Box::new(CsvFile::open(&path, schema.clone(), fmt).unwrap()),
        ];
        // No field, every field (quoted text stops the scan), some backwards.
        let requests: [&[usize]; 3] = [&[], &[0, 1, 2], &[2, 0]];
        for (open, attrs) in open.iter().flat_map(|o| requests.map(|a| (o, a))) {
            let serial_file = open();
            let serial = scanned_records(&serial_file, None, attrs);
            let serial_io = serial_file.counters().snapshot();
            if !serial.1 {
                prop_assert_eq!(serial_io.bytes_read, text.len() as u64);
            }
            for n in 1..=text.len() + 2 {
                let file = open();
                let got = scanned_records(&file, Some(n), attrs);
                prop_assert_eq!(&got, &serial, "{} partitions of {:?}, {:?}", n, text, attrs);
                let io = file.counters().snapshot();
                if !text.is_empty() {
                    prop_assert_eq!(io, serial_io, "{} partitions of {:?}, {:?}", n, text, attrs);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Deterministic (non-proptest) regression: FullTile read policy answers
/// identically to WindowOnly, just with different I/O.
#[test]
fn read_policies_agree_on_answers() {
    let (file, spec) = fixture(9);
    let window = Rect::new(150.0, 620.0, 180.0, 740.0);
    let aggs = [AggregateFunction::Sum(2), AggregateFunction::Count];
    let mut results = Vec::new();
    for read in [ReadPolicy::WindowOnly, ReadPolicy::FullTile] {
        let index = build_index(&file, &spec, 5);
        let cfg = EngineConfig {
            adapt: AdaptConfig {
                read,
                ..Default::default()
            },
            ..EngineConfig::paper_evaluation()
        };
        let mut engine = ApproximateEngine::new(index, &file, cfg).unwrap();
        let res = engine.evaluate(&window, &aggs, 0.0).unwrap();
        results.push((res.values[0].as_f64().unwrap(), res.values[1]));
    }
    assert_eq!(results[0].1, results[1].1);
    assert!((results[0].0 - results[1].0).abs() < 1e-6 * (1.0 + results[0].0.abs()));
}
