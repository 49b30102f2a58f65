//! Test-support builders shared by downstream crates' unit tests.
//!
//! Real code paths construct indexes through [`crate::init::build`]; these
//! helpers exist so that tests (here and in `pai-core`/`pai-query`) can set
//! up tiny, fully-controlled indexes and matching in-memory files without
//! repeating boilerplate. Not intended for production use.

use pai_common::geometry::Rect;
use pai_common::RowLocator;
use pai_storage::{CsvFormat, MemFile, Schema};

use crate::entry::ObjectEntry;
use crate::index::ValinorIndex;
use crate::metadata::AttrMeta;
use crate::tile::TileId;

/// Specification of a miniature test index over a 3-column schema
/// (`col0`/`col1` axis, `col2` value).
#[derive(Debug, Clone)]
pub struct TestIndexSpec {
    pub domain: Rect,
    /// Root grid `(nx, ny)`.
    pub grid: (usize, usize),
    /// `(x, y, value)` triples; the locator of object `i` is the locator
    /// of row `i` in the file produced by [`test_file`].
    pub objects: Vec<(f64, f64, f64)>,
    /// Install exact per-tile metadata for `col2` (and global bounds).
    /// Global bounds are folded regardless, mirroring an initialization
    /// scan that parsed the column.
    pub with_metadata: bool,
}

/// The in-memory raw file matching a [`TestIndexSpec`] (headerless CSV so
/// locators are easy to reason about).
pub fn test_file(spec: &TestIndexSpec) -> MemFile {
    let rows = spec
        .objects
        .iter()
        .map(|&(x, y, v)| vec![x, y, v])
        .collect::<Vec<_>>();
    MemFile::from_rows(Schema::synthetic(3), CsvFormat::headerless(), rows)
        .expect("test rows render")
}

/// Locators of each row in [`test_file`]'s output.
fn row_locators(file: &MemFile) -> Vec<RowLocator> {
    use pai_storage::RawFile;
    let mut locs = Vec::new();
    file.scan(&mut |_, loc, _| {
        locs.push(loc);
        Ok(())
    })
    .expect("scan test file");
    // Scanning counts I/O; a test fixture should start with clean meters.
    file.counters().reset();
    locs
}

/// Builds the index described by `spec`, with locators consistent with
/// [`test_file`].
pub fn build_test_index(spec: &TestIndexSpec) -> ValinorIndex {
    let file = test_file(spec);
    let locators = row_locators(&file);
    let mut index = ValinorIndex::new(Schema::synthetic(3), spec.domain, spec.grid.0, spec.grid.1)
        .expect("valid test index spec");
    for (i, &(x, y, _)) in spec.objects.iter().enumerate() {
        index.insert_entry(ObjectEntry::new(x, y, locators[i]));
    }
    for &(_, _, v) in &spec.objects {
        index.fold_global_bound(2, v);
    }
    if spec.with_metadata {
        // Group values per leaf and install exact stats.
        let leaves: Vec<TileId> = index.leaves_overlapping(&spec.domain);
        for leaf in leaves {
            let rect = index.tile(leaf).rect;
            let values: Vec<f64> = spec
                .objects
                .iter()
                .filter(|&&(x, y, _)| rect.contains_point(pai_common::geometry::Point2::new(x, y)))
                .map(|&(_, _, v)| v)
                .collect();
            if !values.is_empty() {
                index
                    .tile_mut(leaf)
                    .meta
                    .set(2, AttrMeta::exact_from_values(&values));
            }
        }
    }
    index
        .validate_invariants()
        .expect("test index invariants hold");
    index
}

/// Builds both the index and its backing file in one call.
pub fn build_test_index_with_file(spec: &TestIndexSpec) -> (ValinorIndex, MemFile) {
    let index = build_test_index(spec);
    (index, test_file(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_common::geometry::Point2;
    use pai_storage::RawFile;

    fn spec() -> TestIndexSpec {
        TestIndexSpec {
            domain: Rect::new(0.0, 10.0, 0.0, 10.0),
            grid: (2, 2),
            objects: vec![(1.0, 1.0, 5.0), (6.0, 6.0, 7.0), (6.0, 1.0, 9.0)],
            with_metadata: true,
        }
    }

    #[test]
    fn builds_consistent_index() {
        let (index, file) = build_test_index_with_file(&spec());
        assert_eq!(index.total_objects(), 3);
        // Locators line up: reading the entry of (1,1) yields value 5.
        let t = index.leaf_for_point(Point2::new(1.0, 1.0)).unwrap();
        let loc = index.tile(t).entries()[0].locator;
        let vals = file.read_rows(&[loc], &[2]).unwrap();
        assert_eq!(vals.values(), [5.0]);
        // Metadata installed.
        assert!(index.tile(t).meta.has_exact(2));
        assert_eq!(index.global_bounds(2).unwrap().hi(), 9.0);
    }

    #[test]
    fn metadata_optional() {
        let index = build_test_index(&TestIndexSpec {
            with_metadata: false,
            ..spec()
        });
        let t = index.leaf_for_point(Point2::new(1.0, 1.0)).unwrap();
        assert!(index.tile(t).meta.get(2).is_none());
        assert!(index.global_bounds(2).is_some());
    }
}
