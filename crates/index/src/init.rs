//! Index initialization: the single pass that builds the "crude" index.
//!
//! The initial index is a uniform grid over the axis domain. One scan of the
//! raw file fills it: every record contributes an [`ObjectEntry`] (axis
//! values + row locator), and — per the configured [`MetadataPolicy`] —
//! exact per-tile aggregate stats for the chosen non-axis columns, plus
//! global per-column bounds (the fallback envelope for confidence
//! intervals).
//!
//! There is one build path, and it is a pipeline. The file is cut into
//! partitions whose number depends on its size alone
//! ([`RawFile::partitions`], ≈ 4 MiB each). Worker threads claim partitions
//! in file order and scan each with [`RawFile::scan_batches`], which lends
//! the axis and metadata columns a storage block at a time; the worker bins
//! every batch's rows into root cells and appends them to a flat chunk. The
//! calling thread folds the chunks into the per-cell accumulators **strictly
//! in file order**, a run of consecutive rows bound for one cell at a time.
//! Every entry sequence, every floating-point sum and every logical I/O meter
//! is therefore bit-identical at every width — which is why the width is not
//! an option: [`build`] takes it from [`std::thread::available_parallelism`],
//! and [`build_parallel`] is the same function with the width spelled out. A
//! file of one partition (or a backend that cannot shard) is scanned on the
//! calling thread, each batch folded as it arrives.

use std::ops::Range;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pai_common::geometry::{Point2, Rect};
use pai_common::pool::run_ordered;
use pai_common::{AttrId, PaiError, Result, RunningStats};
use pai_storage::raw::RawFile;
use pai_storage::scan::{BLOCK_BYTES, SCAN_BATCH_ROWS};
use pai_storage::{ScanBatch, ScanPartition, ScanRequest};

use crate::config::MetadataPolicy;
use crate::entry::ObjectEntry;
use crate::index::ValinorIndex;
use crate::metadata::AttrMeta;
use crate::tile::{zones_of, Leaf};

/// How many initial grid cells to create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridSpec {
    /// Explicit `nx × ny` grid.
    Fixed { nx: usize, ny: usize },
    /// Choose a square-ish grid so each cell holds about this many objects
    /// (requires a known or discovered row count).
    TargetObjectsPerTile(u64),
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec::Fixed { nx: 16, ny: 16 }
    }
}

/// Initialization parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InitConfig {
    pub grid: GridSpec,
    /// Axis domain. `None` triggers a discovery pre-pass over the file
    /// (axis columns only) with the max edges padded so that no object sits
    /// on the half-open boundary.
    pub domain: Option<Rect>,
    pub metadata: MetadataPolicy,
}

/// What initialization cost and produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitReport {
    pub rows: u64,
    pub grid_nx: usize,
    pub grid_ny: usize,
    pub elapsed: Duration,
    /// Whether a domain-discovery pre-pass was needed.
    pub discovered_domain: bool,
}

/// Parsed partitions that may exist at once — claimed by a worker and not
/// yet folded — whatever the width: with [`BLOCK_BYTES`]-sized partitions,
/// the 16 MiB the pipeline may hold beyond the index it is building. It
/// also caps the parsing threads, at one fewer.
const MAX_CHUNKS: usize = 4;

/// The shape of one pass: how many threads parse and into how many
/// partitions the file is cut. Only the second can change what a pass
/// charges, and it follows from the file's size.
#[derive(Debug, Clone, Copy)]
struct Shape {
    width: usize,
    parts: usize,
}

impl Shape {
    fn of(file: &dyn RawFile, width: usize) -> Shape {
        Shape {
            width,
            parts: file.size_bytes().div_ceil(BLOCK_BYTES).max(1) as usize,
        }
    }

    fn auto(file: &dyn RawFile) -> Shape {
        Shape::of(
            file,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
    }
}

/// One pass over `file`, decoding `attrs`, shared by domain discovery and
/// the build.
///
/// `take` moves one scanned batch into a chunk, on whichever thread scans
/// it; `fold` absorbs a chunk (and leaves it empty) on the calling thread,
/// chunks arriving in file order. With `clip` the pass is a pushdown scan of
/// that window instead, which backends do not shard.
///
/// A pass over several partitions takes each into its own chunk on a
/// worker. Chunks come from `new_chunk(rows)`, sized for about `rows` rows,
/// and all of them are made here, by the calling thread, before any worker
/// starts: one per in-flight slot, handed round and round. The pass
/// therefore never holds more than that many, allocates nothing per
/// partition, and gives the memory back to the thread that goes on to
/// answer queries rather than to threads about to exit. A pass over one
/// partition runs on the calling thread with one chunk, folded after every
/// batch.
fn scan_pass<C: Send>(
    file: &dyn RawFile,
    shape: Shape,
    clip: Option<&Rect>,
    attrs: &[AttrId],
    new_chunk: impl Fn(usize) -> C,
    take: impl Fn(&mut C, &ScanBatch<'_>) -> Result<()> + Sync,
    mut fold: impl FnMut(&mut C),
) -> Result<()> {
    let parts = match clip {
        Some(_) => Vec::new(),
        None => file.partitions(shape.parts)?,
    };
    let request = |partition| ScanRequest {
        partition,
        window: clip,
        attrs,
    };
    if parts.len() <= 1 {
        let mut chunk = new_chunk(SCAN_BATCH_ROWS);
        return file.scan_batches(&request(ScanPartition::WHOLE), &mut |batch| {
            take(&mut chunk, batch)?;
            fold(&mut chunk);
            Ok(())
        });
    }
    // One chunk per worker in the making and one being folded: the fold is
    // several times faster than the scan, so a deeper queue buys nothing.
    let workers = shape.width.min(MAX_CHUNKS - 1);
    let in_flight = if workers > 1 { workers + 1 } else { 1 };
    // A partition holds about BLOCK_BYTES of values, text or binary.
    let rows = BLOCK_BYTES as usize / (8 * file.schema().len().max(1));
    let spare: Mutex<Vec<C>> = Mutex::new((0..in_flight).map(|_| new_chunk(rows)).collect());
    let spare = || spare.lock().expect("no holder of the spare chunks panics");
    run_ordered(
        parts.len(),
        workers,
        in_flight,
        |i| {
            // Claimed means within the in-flight bound, and every partition
            // in flight holds one chunk (a failed one for good).
            let mut chunk = spare().pop().expect("a chunk per in-flight slot");
            file.scan_batches(&request(parts[i]), &mut |batch| take(&mut chunk, batch))?;
            Ok(chunk)
        },
        |_, mut chunk| {
            fold(&mut chunk);
            spare().push(chunk);
            Ok(())
        },
    )
}

/// Axis extents and row count of the records seen so far.
#[derive(Default)]
struct Extent {
    xs: RunningStats,
    ys: RunningStats,
    rows: u64,
}

/// Discovers the axis domain with a pre-pass, padding the max edges so that
/// every object satisfies the half-open containment of its tile. The pass
/// sees every row, so it returns the row count with the domain.
pub fn discover_domain(file: &dyn RawFile) -> Result<(Rect, u64)> {
    discover(file, Shape::auto(file))
}

fn discover(file: &dyn RawFile, shape: Shape) -> Result<(Rect, u64)> {
    let schema = file.schema();
    let mut all = Extent::default();
    scan_pass(
        file,
        shape,
        None,
        &[schema.x_axis(), schema.y_axis()],
        |_| Extent::default(),
        |part: &mut Extent, batch| {
            for (&x, &y) in batch.column(0).iter().zip(batch.column(1)) {
                part.xs.push(x);
                part.ys.push(y);
            }
            part.rows += batch.len() as u64;
            Ok(())
        },
        // Min, max and counts merge exactly, in any grouping.
        |part| {
            let part = std::mem::take(part);
            all.xs.merge(&part.xs);
            all.ys.merge(&part.ys);
            all.rows += part.rows;
        },
    )?;
    let (xs, ys) = (all.xs, all.ys);
    if xs.is_empty() {
        return Err(PaiError::schema(
            "cannot discover a domain on an empty file",
        ));
    }
    let (x0, x1) = (xs.min().expect("nonempty"), xs.max().expect("nonempty"));
    let (y0, y1) = (ys.min().expect("nonempty"), ys.max().expect("nonempty"));
    let pad = |lo: f64, hi: f64| {
        let span = (hi - lo).abs();
        let eps = if span > 0.0 { span * 1e-9 } else { 1.0 };
        (lo, hi + eps)
    };
    let (x0, x1) = pad(x0, x1);
    let (y0, y1) = pad(y0, y1);
    Ok((Rect::new(x0, x1, y0, y1), all.rows))
}

fn resolve_grid(spec: GridSpec, row_hint: Option<u64>) -> Result<(usize, usize)> {
    match spec {
        GridSpec::Fixed { nx, ny } => {
            if nx == 0 || ny == 0 {
                return Err(PaiError::config("grid must be at least 1x1"));
            }
            Ok((nx, ny))
        }
        GridSpec::TargetObjectsPerTile(k) => {
            if k == 0 {
                return Err(PaiError::config("target objects per tile must be > 0"));
            }
            let rows = row_hint.ok_or_else(|| {
                PaiError::config(
                    "TargetObjectsPerTile needs a discovered domain (row count unknown)",
                )
            })?;
            let cells = (rows as f64 / k as f64).ceil().max(1.0);
            let side = (cells.sqrt().ceil() as usize).max(1);
            Ok((side, side))
        }
    }
}

/// Per-cell metadata accumulator filled by the fold.
struct CellAcc {
    entries: Vec<ObjectEntry>,
    stats: Vec<RunningStats>,
    nulls: Vec<u64>,
}

impl CellAcc {
    fn new(n_attrs: usize) -> Self {
        CellAcc {
            entries: Vec::new(),
            stats: vec![RunningStats::new(); n_attrs],
            nulls: vec![0; n_attrs],
        }
    }

    /// Appends a run of rows bound for this cell: `entries`, and rows `rows`
    /// of each metadata column of `vals`, in order.
    fn extend(&mut self, entries: &[ObjectEntry], vals: &[Vec<f64>], rows: Range<usize>) {
        self.entries.extend_from_slice(entries);
        for ((stats, nulls), column) in self.stats.iter_mut().zip(&mut self.nulls).zip(vals) {
            let (mut s, mut n) = (*stats, *nulls);
            for &v in &column[rows.clone()] {
                if v.is_nan() {
                    n += 1;
                } else {
                    s.push(v);
                }
            }
            (*stats, *nulls) = (s, n);
        }
    }
}

/// The accepted rows of one partition, flat and in file order: row `i` is
/// `entries[i]`, bound for root cell `cells[i]`, with its value of metadata
/// attribute `k` at `vals[k][i]`.
struct Chunk {
    cells: Vec<u32>,
    entries: Vec<ObjectEntry>,
    vals: Vec<Vec<f64>>,
    /// The rows of the batch in hand that a clipped pass keeps.
    kept: Vec<usize>,
}

impl Chunk {
    /// Bins the rows of `batch` (the axes, then the metadata attributes)
    /// into root cells of `index` and appends them. Unclipped, a row outside
    /// the closed domain is a data error; clipped, a row outside the
    /// half-open domain (a query window) is skipped.
    fn take(&mut self, batch: &ScanBatch<'_>, index: &ValinorIndex, clipped: bool) -> Result<()> {
        let domain = index.domain();
        self.kept.clear();
        let before = self.entries.len();
        for (i, (&x, &y)) in batch.column(0).iter().zip(batch.column(1)).enumerate() {
            let p = Point2::new(x, y);
            if clipped {
                // Block skipping is a superset filter: apply the exact clip
                // here.
                if !domain.contains_point(p) {
                    continue;
                }
                self.kept.push(i);
            } else if !domain.contains_point_closed(p) {
                return Err(PaiError::schema(format!(
                    "object at {p:?} outside the configured domain {domain}"
                )));
            }
            self.cells.push(index.root_cell_of(p) as u32);
            self.entries.push(ObjectEntry::new(x, y, batch.locator(i)));
        }
        let every_row = self.entries.len() - before == batch.len();
        for (k, vals) in self.vals.iter_mut().enumerate() {
            let column = batch.column(k + 2);
            if every_row {
                vals.extend_from_slice(column);
            } else {
                vals.extend(self.kept.iter().map(|&i| column[i]));
            }
        }
        Ok(())
    }

    /// Folds the chunk into `accs` and empties it: a run of consecutive rows
    /// bound for one cell at a time, so file order holds inside every cell.
    fn fold_into(&mut self, accs: &mut [CellAcc]) {
        let mut start = 0;
        while start < self.cells.len() {
            let cell = self.cells[start];
            let run = self.cells[start..]
                .iter()
                .take_while(|&&c| c == cell)
                .count();
            let rows = start..start + run;
            accs[cell as usize].extend(&self.entries[rows.clone()], &self.vals, rows);
            start += run;
        }
        self.cells.clear();
        self.entries.clear();
        for vals in &mut self.vals {
            vals.clear();
        }
    }
}

/// Bins every accepted record of `file` into per-root-cell accumulators.
///
/// A full build treats a record outside the (closed) domain as a data error;
/// a clipped one scans with the domain pushed down and silently skips
/// records outside it (half-open, like a query window).
fn accumulate_cells(
    file: &dyn RawFile,
    index: &ValinorIndex,
    attrs: &[AttrId],
    clipped: bool,
    shape: Shape,
) -> Result<Vec<CellAcc>> {
    let schema = file.schema();
    let wanted: Vec<AttrId> = [schema.x_axis(), schema.y_axis()]
        .into_iter()
        .chain(attrs.iter().copied())
        .collect();
    let mut accs: Vec<CellAcc> = (0..index.root_cells())
        .map(|_| CellAcc::new(attrs.len()))
        .collect();
    scan_pass(
        file,
        shape,
        clipped.then_some(index.domain()),
        &wanted,
        |rows| Chunk {
            cells: Vec::with_capacity(rows),
            entries: Vec::with_capacity(rows),
            vals: (0..attrs.len()).map(|_| Vec::with_capacity(rows)).collect(),
            kept: Vec::new(),
        },
        |chunk: &mut Chunk, batch| chunk.take(batch, index, clipped),
        // The only place accumulators change: in file order, whichever
        // thread scanned the rows.
        |chunk| chunk.fold_into(&mut accs),
    )?;
    Ok(accs)
}

/// The one build: resolve the domain (given, clipped to, or discovered),
/// lay the grid, fill it with one pass, install.
fn build_with(
    file: &dyn RawFile,
    config: &InitConfig,
    clip: Option<&Rect>,
    shape: Shape,
) -> Result<(ValinorIndex, InitReport)> {
    let start = Instant::now();
    let schema = file.schema().clone();
    let attrs = config.metadata.resolve(&schema);
    let (domain, row_hint) = match (clip, config.domain) {
        (Some(region), _) if region.is_empty() => {
            return Err(PaiError::config("clip region must have positive area"));
        }
        (Some(region), _) => (*region, None),
        (None, Some(domain)) => (domain, None),
        (None, None) => {
            let (domain, rows) = discover(file, shape)?;
            (domain, Some(rows))
        }
    };
    let (nx, ny) = resolve_grid(config.grid, row_hint)?;
    let mut index = ValinorIndex::new(schema, domain, nx, ny)?;
    let accs = accumulate_cells(file, &index, &attrs, clip.is_some(), shape)?;
    install_cells(&mut index, accs, &attrs, shape.width)?;
    let report = InitReport {
        rows: index.total_objects(),
        grid_nx: nx,
        grid_ny: ny,
        elapsed: start.elapsed(),
        discovered_domain: row_hint.is_some(),
    };
    Ok((index, report))
}

/// Builds the initial index with one scan of the file, pipelined over as
/// many threads as the machine offers (and the file has partitions for).
pub fn build(file: &dyn RawFile, config: &InitConfig) -> Result<(ValinorIndex, InitReport)> {
    build_with(file, config, None, Shape::auto(file))
}

/// [`build`] with the number of parsing threads spelled out.
///
/// The same function, and the same index bit for bit — entry order, metadata
/// sums, bounds, logical I/O meters — at every `threads`; only the wall time
/// differs. Works over any backend: the file decides how (and whether) its
/// scan shards via [`RawFile::partitions`].
pub fn build_parallel(
    file: &dyn RawFile,
    config: &InitConfig,
    threads: usize,
) -> Result<(ValinorIndex, InitReport)> {
    build_with(file, config, None, Shape::of(file, threads.max(1)))
}

/// Builds an initial index over only the objects inside `region` — a
/// region-of-interest initialization.
///
/// Unlike [`build`], records outside `region` are *skipped*, not errors:
/// the index's domain becomes `region` and the scan pushes the region down
/// to the storage backend ([`ScanRequest::window`]), so zone-mapped
/// files skip whole blocks that provably lie outside it without decoding a
/// byte. On backends without block statistics this degrades to a full scan
/// with a per-record filter — same index, no savings.
///
/// Containment is half-open (like a query window), so a clipped index over
/// a sub-rectangle composes exactly with window queries inside it.
pub fn build_clipped(
    file: &dyn RawFile,
    config: &InitConfig,
    region: &Rect,
) -> Result<(ValinorIndex, InitReport)> {
    build_with(file, config, Some(region), Shape::of(file, 1))
}

/// Moves accumulated entries/metadata into the index tiles and folds global
/// column bounds. The cells' zone maps, a pass over every entry, are built
/// first on `width` threads, a cell at a time.
fn install_cells(
    index: &mut ValinorIndex,
    accs: Vec<CellAcc>,
    attrs: &[usize],
    width: usize,
) -> Result<()> {
    let mut zones = Vec::with_capacity(accs.len());
    run_ordered(
        accs.len(),
        width,
        width + 1,
        |cell| Ok(zones_of(&accs[cell].entries)),
        |_, z| {
            zones.push(z);
            Ok(())
        },
    )?;
    for ((cell, mut acc), zones) in accs.into_iter().enumerate().zip(zones) {
        // Fold global bounds from the per-cell stats and record the cell's
        // NULLs.
        for ((&attr, s), &nulls) in attrs.iter().zip(&acc.stats).zip(&acc.nulls) {
            index.fold_global_stats(attr, s, nulls);
        }
        if acc.entries.is_empty() {
            continue;
        }
        let tile_id = index.root_tile(cell);
        for (i, (stats, nulls)) in acc.stats.iter().zip(&acc.nulls).enumerate() {
            index.tile_mut(tile_id).meta.set(
                attrs[i],
                AttrMeta::Exact {
                    stats: *stats,
                    nulls: *nulls,
                },
            );
        }
        acc.entries.shrink_to_fit();
        index.install_cell(cell, Leaf::from_parts(acc.entries, zones));
    }
    debug_assert!(index.validate_invariants().is_ok());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_common::Interval;
    use pai_storage::{CsvFormat, MemFile, Schema};

    fn tiny_file() -> MemFile {
        // 4 points in [0,10)^2 with col2 known.
        let rows = vec![
            vec![1.0, 1.0, 10.0],
            vec![9.0, 1.0, 20.0],
            vec![1.0, 9.0, 30.0],
            vec![9.0, 9.0, 40.0],
        ];
        MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap()
    }

    #[test]
    fn build_with_fixed_domain() {
        let f = tiny_file();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: Some(Rect::new(0.0, 10.0, 0.0, 10.0)),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, report) = build(&f, &cfg).unwrap();
        assert_eq!(report.rows, 4);
        assert!(!report.discovered_domain);
        assert_eq!(idx.total_objects(), 4);
        assert_eq!(idx.leaf_count(), 4);
        idx.validate_invariants().unwrap();
        // Each quadrant holds exactly one object with exact metadata.
        for (p, v) in [((1.0, 1.0), 10.0), ((9.0, 9.0), 40.0)] {
            let t = idx.leaf_for_point(Point2::new(p.0, p.1)).unwrap();
            assert_eq!(idx.tile(t).object_count(), 1);
            let meta = idx.tile(t).meta.get(2).unwrap();
            assert_eq!(meta.exact_sum(), Some(v));
        }
        assert_eq!(idx.global_bounds(2), Some(Interval::new(10.0, 40.0)));
    }

    #[test]
    fn build_discovers_domain() {
        let f = tiny_file();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: None,
            metadata: MetadataPolicy::None,
        };
        let (idx, report) = build(&f, &cfg).unwrap();
        assert!(report.discovered_domain);
        assert_eq!(idx.total_objects(), 4);
        // Discovered domain covers the extreme points strictly.
        assert!(idx.domain().contains_point(Point2::new(9.0, 9.0)));
        // No metadata requested -> no global bounds either.
        assert_eq!(idx.global_bounds(2), None);
        idx.validate_invariants().unwrap();
        // Discovery and the build: two passes, not a third to count rows.
        assert_eq!(f.counters().snapshot().full_scans, 2);
    }

    #[test]
    fn discovered_row_count_sizes_the_grid() {
        let f = tiny_file();
        let cfg = InitConfig {
            grid: GridSpec::TargetObjectsPerTile(1),
            domain: None,
            metadata: MetadataPolicy::None,
        };
        let (idx, report) = build(&f, &cfg).unwrap();
        assert_eq!((report.rows, report.grid_nx, report.grid_ny), (4, 2, 2));
        assert_eq!(idx.leaf_count(), 4);
        assert_eq!(f.counters().snapshot().full_scans, 2);
    }

    #[test]
    fn in_flight_chunks_stay_within_16_mib() {
        // The pool holds at most `workers + 1 <= MAX_CHUNKS` parsed
        // partitions of BLOCK_BYTES each (`common::pool` tests the count).
        assert!(MAX_CHUNKS as u64 * BLOCK_BYTES <= 16 << 20);
    }

    #[test]
    fn object_outside_domain_is_schema_error() {
        let f = tiny_file();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: Some(Rect::new(0.0, 5.0, 0.0, 5.0)),
            metadata: MetadataPolicy::None,
        };
        assert!(build(&f, &cfg).is_err());
    }

    #[test]
    fn target_objects_grid_sizing() {
        assert_eq!(
            resolve_grid(GridSpec::TargetObjectsPerTile(25), Some(100)).unwrap(),
            (2, 2)
        );
        assert_eq!(
            resolve_grid(GridSpec::TargetObjectsPerTile(1000), Some(10)).unwrap(),
            (1, 1)
        );
        assert!(resolve_grid(GridSpec::TargetObjectsPerTile(10), None).is_err());
        assert!(resolve_grid(GridSpec::TargetObjectsPerTile(0), Some(10)).is_err());
        assert!(resolve_grid(GridSpec::Fixed { nx: 0, ny: 1 }, None).is_err());
    }

    #[test]
    fn discover_domain_empty_file_fails() {
        let f = MemFile::from_text("col0,col1\n", Schema::synthetic(2), CsvFormat::default());
        assert!(discover_domain(&f).is_err());
        let (domain, rows) = discover_domain(&tiny_file()).unwrap();
        assert_eq!(rows, 4);
        assert!(domain.contains_point(Point2::new(9.0, 9.0)));
    }

    #[test]
    fn global_bounds_record_the_builds_nulls() {
        // col2 is NULL in the second cell; col3 never is.
        let rows = vec![vec![1.0, 1.0, 5.0, 7.0], vec![9.0, 9.0, f64::NAN, 8.0]];
        let f = MemFile::from_rows(Schema::synthetic(4), CsvFormat::default(), rows).unwrap();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: Some(Rect::new(0.0, 10.0, 0.0, 10.0)),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&f, &cfg).unwrap();
        assert_eq!(idx.global_bounds(2), Some(Interval::point(5.0)));
        assert!(!idx.global_meta(2).unwrap().certainly_non_null());
        assert!(idx.global_meta(3).unwrap().certainly_non_null());
    }

    #[test]
    fn clipped_build_indexes_only_the_region() {
        let f = tiny_file();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: None, // ignored: the region is the domain
            metadata: MetadataPolicy::AllNumeric,
        };
        // Clip to the left half: keeps (1,1) and (1,9) only.
        let region = Rect::new(0.0, 5.0, 0.0, 10.0);
        let (idx, report) = build_clipped(&f, &cfg, &region).unwrap();
        assert_eq!(report.rows, 2);
        assert_eq!(idx.total_objects(), 2);
        assert_eq!(*idx.domain(), region);
        assert_eq!(idx.global_bounds(2), Some(Interval::new(10.0, 30.0)));
        idx.validate_invariants().unwrap();
        // Degenerate regions are rejected.
        assert!(build_clipped(&f, &cfg, &Rect::new(1.0, 1.0, 0.0, 1.0)).is_err());
    }

    #[test]
    fn clipped_build_skips_dead_blocks_on_zone_backend() {
        use pai_storage::ZoneFile;
        // Rows ordered by x: zone blocks carry tight x envelopes.
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, 5.0, i as f64]).collect();
        let zone =
            ZoneFile::from_rows_with_block(&pai_storage::Schema::synthetic(3), rows, 4).unwrap();
        let csv = MemFile::from_rows(
            pai_storage::Schema::synthetic(3),
            CsvFormat::default(),
            (0..64)
                .map(|i| vec![i as f64, 5.0, i as f64])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 2, ny: 2 },
            domain: None,
            metadata: MetadataPolicy::AllNumeric,
        };
        let region = Rect::new(20.0, 30.0, 0.0, 10.0);
        let (zi, zr) = build_clipped(&zone, &cfg, &region).unwrap();
        let (ci, cr) = build_clipped(&csv, &cfg, &region).unwrap();
        assert_eq!(zr.rows, 10);
        assert_eq!(cr.rows, 10, "backends agree on the clipped content");
        assert_eq!(zi.total_objects(), ci.total_objects());
        assert_eq!(zi.global_bounds(2), ci.global_bounds(2));
        assert!(
            zone.counters().blocks_skipped() > 0,
            "zone init must skip provably-dead blocks"
        );
        assert_eq!(csv.counters().blocks_skipped(), 0, "CSV has no blocks");
        // The pushdown scan moved fewer bytes than a full zone scan would.
        let clipped_bytes = zone.counters().bytes_read();
        zone.counters().reset();
        zone.scan(&mut |_, _, _| Ok(())).unwrap();
        assert!(clipped_bytes < zone.counters().bytes_read());
    }
}

/// Width × backend bit-identity and first-error tests of the pipeline, with
/// partition counts small files would never get from their size.
#[cfg(test)]
#[path = "init_pipeline_tests.rs"]
mod pipeline_tests;
