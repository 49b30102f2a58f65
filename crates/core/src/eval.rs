//! Tests of the exact method — the paper's baseline, exact adaptive
//! indexing — as [`crate::ApproximateEngine::evaluate_exact`] answers it.

#[cfg(test)]
mod tests {
    use crate::{ApproximateEngine, EngineConfig};
    use pai_common::geometry::Rect;
    use pai_common::{AggregateFunction, AggregateValue};
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::{MetadataPolicy, TileId};
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile, RawFile};

    /// An engine for the exact method over an `nx` x `nx` grid on the
    /// file's own extent.
    fn exact_engine(file: &MemFile, nx: usize, metadata: MetadataPolicy) -> ApproximateEngine<'_> {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx, ny: nx },
            domain: None,
            metadata,
        };
        let (idx, _) = build(file, &init).unwrap();
        let adapt = pai_index::AdaptConfig {
            min_split_objects: 4,
            ..Default::default()
        };
        let config = EngineConfig {
            adapt,
            ..Default::default()
        };
        ApproximateEngine::new(idx, file, config).unwrap()
    }

    fn random_file(rows: u64, seed: u64) -> MemFile {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed,
            ..Default::default()
        };
        spec.build_mem(CsvFormat::default()).unwrap()
    }

    #[test]
    fn exact_matches_ground_truth() {
        let file = random_file(2000, 11);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        let window = Rect::new(200.0, 600.0, 300.0, 800.0);
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Min(3),
            AggregateFunction::Max(3),
        ];
        let res = engine.evaluate_exact(&window, &aggs).unwrap();
        let truth = window_truth(&file, &window, &[2, 3]).unwrap();

        assert_eq!(res.values[0], AggregateValue::Count(truth[0].selected));
        let sum = res.values[1].as_f64().unwrap();
        assert!((sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
        let mean = res.values[2].as_f64().unwrap();
        assert!((mean - truth[0].stats.mean().unwrap()).abs() < 1e-9);
        assert_eq!(res.values[3].as_f64(), truth[1].stats.min());
        assert_eq!(res.values[4].as_f64(), truth[1].stats.max());
        engine.index().validate_invariants().unwrap();
    }

    #[test]
    fn repeated_query_needs_no_io() {
        let file = random_file(3000, 5);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        let window = Rect::new(100.0, 500.0, 100.0, 500.0);
        let aggs = [AggregateFunction::Sum(2)];
        let first = engine.evaluate_exact(&window, &aggs).unwrap();
        assert!(first.stats.io.objects_read > 0, "first query adapts");
        let second = engine.evaluate_exact(&window, &aggs).unwrap();
        assert_eq!(
            second.stats.io.objects_read, 0,
            "after adaptation the same query is metadata-only"
        );
        assert_eq!(
            first.values[0].as_f64().unwrap(),
            second.values[0].as_f64().unwrap()
        );
        assert!(second.stats.tiles_processed <= second.stats.tiles_partial);
    }

    #[test]
    fn covered_split_cell_answers_from_its_own_metadata() {
        let file = random_file(3000, 5);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        let aggs = [AggregateFunction::Count, AggregateFunction::Sum(2)];
        // A window cutting through one root cell splits it; window-only
        // reads leave the children outside the window with inherited bounds.
        let cell = engine.index().tile(TileId(5)).rect;
        let cut = Rect::new(
            cell.x_min,
            cell.center().x,
            cell.y_min - 1.0,
            cell.y_max + 1.0,
        );
        engine.evaluate_exact(&cut, &aggs).unwrap();
        let index = engine.index();
        let root = index.tile(TileId(5));
        assert!(!root.is_leaf() && root.meta.has_exact(2));
        let bounded = index
            .leaves_overlapping(&cell)
            .into_iter()
            .filter(|&l| index.tile(l).object_count() > 0 && !index.tile(l).meta.has_exact(2))
            .count();
        assert!(bounded > 0, "some child kept only its inherited bounds");

        // The whole cell inside a window: it is one covering tile, and its
        // own exact stats — true for everything below it — answer without a
        // read, where a leaf-by-leaf walk would enrich the bounded children.
        let c = index.classify(&cell);
        assert_eq!(c.full, vec![TileId(5)]);
        assert!(c.partial.is_empty());
        let res = engine.evaluate_exact(&cell, &aggs).unwrap();
        assert_eq!((res.stats.io.bytes_read, res.stats.io.read_calls), (0, 0));
        assert_eq!((res.stats.tiles_full, res.stats.tiles_enriched), (1, 0));
        let truth = &window_truth(&file, &cell, &[2]).unwrap()[0];
        assert_eq!(res.values[0], AggregateValue::Count(truth.selected));
        let sum = res.values[1].as_f64().unwrap();
        assert!((sum - truth.stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
    }

    #[test]
    fn adaptation_reduces_io_for_overlapping_queries() {
        let file = random_file(5000, 17);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        let aggs = [AggregateFunction::Mean(2)];
        let w1 = Rect::new(100.0, 600.0, 100.0, 600.0);
        let r1 = engine.evaluate_exact(&w1, &aggs).unwrap();
        // Shifted window (the exploration pattern): most area is warm now.
        let w2 = w1.shifted(60.0, 60.0);
        let r2 = engine.evaluate_exact(&w2, &aggs).unwrap();
        assert!(
            r2.stats.io.objects_read < r1.stats.io.objects_read,
            "adapted area should need less I/O: {} vs {}",
            r2.stats.io.objects_read,
            r1.stats.io.objects_read,
        );
    }

    #[test]
    fn count_only_query_reads_nothing() {
        let file = random_file(1000, 3);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        file.counters().reset();
        let res = engine
            .evaluate_exact(
                &Rect::new(0.0, 500.0, 0.0, 500.0),
                &[AggregateFunction::Count],
            )
            .unwrap();
        // Counting uses axis values only; no attribute reads... but tiles
        // may still be split (splitting needs no values, yet our process
        // path reads the requested attrs — which are none).
        assert_eq!(res.stats.io.objects_read, 0);
        let truth =
            pai_storage::ground_truth::window_count(&file, &Rect::new(0.0, 500.0, 0.0, 500.0))
                .unwrap();
        assert_eq!(res.values[0], AggregateValue::Count(truth));
    }

    #[test]
    fn metadata_none_still_correct() {
        let file = random_file(1500, 23);
        let mut engine = exact_engine(&file, 3, MetadataPolicy::None);
        let window = Rect::new(250.0, 750.0, 250.0, 750.0);
        let res = engine
            .evaluate_exact(&window, &[AggregateFunction::Sum(3)])
            .unwrap();
        let truth = window_truth(&file, &window, &[3]).unwrap();
        let sum = res.values[0].as_f64().unwrap();
        assert!((sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()));
        assert!(
            res.stats.tiles_enriched > 0,
            "missing metadata forces enrichment"
        );
    }

    #[test]
    fn rejects_axis_aggregate_and_empty_query() {
        let file = random_file(100, 1);
        let mut engine = exact_engine(&file, 2, MetadataPolicy::AllNumeric);
        let w = Rect::new(0.0, 1.0, 0.0, 1.0);
        assert!(engine
            .evaluate_exact(&w, &[AggregateFunction::Sum(0)])
            .is_err());
        assert!(engine.evaluate_exact(&w, &[]).is_err());
    }

    #[test]
    fn empty_window_yields_empty_values() {
        let file = random_file(500, 9);
        let mut engine = exact_engine(&file, 3, MetadataPolicy::AllNumeric);
        let res = engine
            .evaluate_exact(
                &Rect::new(-100.0, -50.0, -100.0, -50.0),
                &[
                    AggregateFunction::Count,
                    AggregateFunction::Mean(2),
                    AggregateFunction::Sum(2),
                ],
            )
            .unwrap();
        assert_eq!(res.values[0], AggregateValue::Count(0));
        assert_eq!(res.values[1], AggregateValue::Empty);
        assert_eq!(res.values[2], AggregateValue::Float(0.0));
    }

    #[test]
    fn variance_extension_matches_truth() {
        let file = random_file(2000, 29);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        let window = Rect::new(100.0, 900.0, 100.0, 900.0);
        let res = engine
            .evaluate_exact(&window, &[AggregateFunction::Variance(2)])
            .unwrap();
        let truth = window_truth(&file, &window, &[2]).unwrap();
        let v = res.values[0].as_f64().unwrap();
        let tv = truth[0].stats.variance().unwrap();
        assert!((v - tv).abs() < 1e-6 * (1.0 + tv.abs()), "{v} vs {tv}");
    }

    #[test]
    fn random_windows_fuzz_against_truth() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let file = random_file(1200, 31);
        let mut engine = exact_engine(&file, 4, MetadataPolicy::AllNumeric);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let x0 = rng.gen_range(0.0..900.0);
            let y0 = rng.gen_range(0.0..900.0);
            let w = rng.gen_range(10.0..400.0);
            let h = rng.gen_range(10.0..400.0);
            let window = Rect::new(x0, (x0 + w).min(1000.0), y0, (y0 + h).min(1000.0));
            let res = engine
                .evaluate_exact(
                    &window,
                    &[AggregateFunction::Count, AggregateFunction::Sum(2)],
                )
                .unwrap();
            let truth = window_truth(&file, &window, &[2]).unwrap();
            assert_eq!(res.values[0], AggregateValue::Count(truth[0].selected));
            let sum = res.values[1].as_f64().unwrap();
            assert!(
                (sum - truth[0].stats.sum()).abs() < 1e-6 * (1.0 + sum.abs()),
                "window {window}: {sum} vs {}",
                truth[0].stats.sum()
            );
        }
        engine.index().validate_invariants().unwrap();
    }
}
