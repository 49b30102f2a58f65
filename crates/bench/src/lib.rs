//! Shared fixtures for the paper-reproduction binaries and the gate tests.
//!
//! The `fig2` and `ablations` binaries regenerate the paper's Figure 2 and
//! the ablation rows A1–A5; the integration tests under `tests/` hold the
//! performance gates (`docs/BENCHMARKS.md` lists both). They share: a
//! cached on-disk dataset per format (so runs do not regenerate files), the
//! paper's workload shape, and a standard engine/init configuration.
//!
//! The binaries read two scale knobs, `PAI_BENCH_ROWS` and
//! `PAI_BENCH_QUERIES`, through [`env_u64`]; the gates are fixed in their
//! test files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, AttrId, IoCounters, RowLocator};
use pai_core::EngineConfig;
use pai_index::init::{GridSpec, InitConfig};
use pai_index::MetadataPolicy;
use pai_query::Workload;
use pai_storage::{
    BatchHandler, CsvFile, CsvFormat, DatasetSpec, PointDistribution, RawFile, RowBatch,
    ScanRequest, Schema, ValueModel, ZoneFile,
};

/// Everything a Figure 2 style run needs.
#[derive(Debug, Clone)]
pub struct Fig2Setup {
    pub spec: DatasetSpec,
    pub init: InitConfig,
    pub engine: EngineConfig,
    pub workload: Workload,
    /// Fraction of the domain area each query window covers.
    pub window_fraction: f64,
}

/// The numeric environment variable `name`, or `default` when it is unset
/// or malformed (never a panic mid-run).
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default evaluation dataset: 10 numeric columns (paper layout),
/// Gaussian clusters over a uniform background, smooth value fields.
pub fn default_spec(rows: u64, seed: u64) -> DatasetSpec {
    DatasetSpec {
        rows,
        columns: 10,
        domain: Rect::new(0.0, 1000.0, 0.0, 1000.0),
        distribution: PointDistribution::GaussianClusters {
            clusters: 5,
            sigma_frac: 0.05,
            background: 0.3,
        },
        value_model: ValueModel::SmoothField {
            base: 100.0,
            amplitude: 30.0,
            noise: 3.0,
        },
        seed,
        // Spatially clustered storage: realistic for converted archives and
        // the layout that gives zone maps something to prune.
        order: pai_storage::RowOrder::ZOrder,
    }
}

/// The Figure 2 experiment setup over `rows` rows and a `queries`-query
/// exploration sequence (seed 42 for data and workload).
pub fn fig2_setup(rows: u64, queries: usize) -> Fig2Setup {
    let seed = 42;
    let spec = default_spec(rows, seed);

    // A deliberately crude initial index (the paper's premise: early
    // queries hit unrefined tiles).
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 8, ny: 8 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    // Windows selecting ~2% of the objects, shifted 10-20% per query —
    // the paper's "approximately 100K objects" scaled to our row count.
    let window_fraction = 0.02;
    let start = Workload::centered_window(&spec.domain, window_fraction)
        // Start away from the center so the path has room to wander.
        .shifted(-150.0, -150.0)
        .clamped_into(&spec.domain);
    let workload = Workload::shifted_sequence(
        &spec.domain,
        start,
        queries,
        vec![AggregateFunction::Mean(2)],
        seed,
    );
    Fig2Setup {
        spec,
        init,
        engine: EngineConfig::paper_evaluation(),
        workload,
        window_fraction,
    }
}

/// The Figure 2 setup over `rows` rows with a 12-query sequence: the shape
/// every gate test runs.
pub fn small_setup(rows: u64) -> Fig2Setup {
    fig2_setup(rows, 12)
}

/// Directory for cached generated datasets.
pub fn cache_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("pai-bench-cache");
    std::fs::create_dir_all(&dir).expect("create bench cache dir");
    dir
}

/// Cache file name for `spec` in the format whose extension is `ext`, so
/// every representation of one dataset can coexist.
fn cache_key(spec: &DatasetSpec, ext: &str) -> String {
    let dist_tag = match spec.distribution {
        PointDistribution::Uniform => "uni".to_string(),
        PointDistribution::GaussianClusters {
            clusters,
            sigma_frac,
            ..
        } => {
            format!("g{clusters}s{}", (sigma_frac * 1000.0) as u64)
        }
        PointDistribution::DiagonalBand { width_frac } => {
            format!("diag{}", (width_frac * 1000.0) as u64)
        }
    };
    let vm_tag = match spec.value_model {
        ValueModel::SmoothField {
            amplitude, noise, ..
        } => {
            format!("sm{}n{}", amplitude as u64, noise as u64)
        }
        ValueModel::UniformNoise { lo, hi } => format!("un{}_{}", lo as i64, hi as i64),
    };
    let ord_tag = match spec.order {
        pai_storage::RowOrder::Generated => "gen",
        pai_storage::RowOrder::ZOrder => "zord",
    };
    format!(
        "pai_{}r_{}c_{}s_{dist_tag}_{vm_tag}_{ord_tag}.{ext}",
        spec.rows, spec.columns, spec.seed
    )
}

/// Generates a dataset file at `path` without ever exposing a partial one:
/// `write` fills a uniquely named file beside it, which is then renamed into
/// place. Concurrent callers each publish a complete file (the last rename
/// wins), and an interrupted write leaves only its temporary behind.
fn publish<T>(path: &Path, write: impl FnOnce(&Path) -> pai_common::Result<T>) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().expect("cache file name").to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{name}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    write(&tmp).expect("write bench dataset");
    std::fs::rename(&tmp, path).expect("publish bench dataset");
}

/// Writes (or reuses) the CSV for `spec` and opens it. Cache key covers the
/// generation parameters; a file whose size is implausible for the row count
/// is regenerated.
pub fn cached_csv(spec: &DatasetSpec) -> CsvFile {
    let path = cache_dir().join(cache_key(spec, "csv"));
    let open = || CsvFile::open(&path, spec.schema(), CsvFormat::default());
    if let Ok(file) = open() {
        // Quick sanity: plausibly complete (more bytes than rows).
        if file.size_bytes() > spec.rows {
            return file;
        }
    }
    publish(&path, |tmp| spec.write_csv(tmp, CsvFormat::default()));
    open().expect("open bench dataset")
}

/// Writes (or reuses) the zone-mapped compressed file for `spec` and opens
/// it. Opening validates header, widths, and exact size, so a stale file is
/// simply regenerated.
pub fn cached_zone(spec: &DatasetSpec) -> ZoneFile {
    let path = cache_dir().join(cache_key(spec, "paizone"));
    if let Ok(file) = ZoneFile::open(&path) {
        if file.n_rows() == spec.rows {
            return file;
        }
    }
    publish(&path, |tmp| spec.write_zone(tmp));
    ZoneFile::open(&path).expect("open bench dataset")
}

/// A file read with no window pushed down: scans and positional reads reach
/// the wrapped file without their window, so its zone maps prove nothing
/// dead. The baseline the pushdown gates measure the same image against.
pub struct NoPushdown<F>(pub F);

impl<F: RawFile> RawFile for NoPushdown<F> {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn counters(&self) -> &IoCounters {
        self.0.counters()
    }

    fn size_bytes(&self) -> u64 {
        self.0.size_bytes()
    }

    fn scan_batches(
        &self,
        request: &ScanRequest<'_>,
        handler: &mut BatchHandler<'_>,
    ) -> pai_common::Result<()> {
        let request = ScanRequest {
            window: None,
            ..*request
        };
        self.0.scan_batches(&request, handler)
    }

    fn read_rows_into(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        _window: Option<&Rect>,
        out: &mut RowBatch,
    ) -> pai_common::Result<()> {
        self.0.read_rows_into(locators, attrs, None, out)
    }

    fn inner(&self) -> Option<&dyn RawFile> {
        Some(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_storage::{
        CacheConfig, CachedFile, FaultPlan, HttpFile, HttpOptions, LatencyFile, ObjectStore,
    };

    fn collect(f: &dyn RawFile, columns: usize) -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let wanted: Vec<usize> = (0..columns).collect();
        f.scan(&mut |_, _, rec| {
            let mut vals = Vec::new();
            rec.extract_f64(&wanted, &mut vals)?;
            rows.push(vals);
            Ok(())
        })
        .unwrap();
        rows
    }

    fn row_count(f: &dyn RawFile) -> u64 {
        let mut rows = 0;
        f.scan(&mut |_, _, _| {
            rows += 1;
            Ok(())
        })
        .unwrap();
        rows
    }

    /// The zone image of `spec` on a fresh in-process object store, opened
    /// over ranged GETs. The store must outlive the file.
    fn served_zone(spec: &DatasetSpec) -> (ObjectStore, HttpFile) {
        let zone = cached_zone(spec);
        let store = ObjectStore::serve_with(std::time::Duration::ZERO, FaultPlan::Off)
            .expect("start object store");
        let image = std::fs::read(zone.path().expect("cached zone is on disk")).unwrap();
        store.put("dataset.paizone", image);
        let http = HttpFile::open(store.addr(), "dataset.paizone", HttpOptions::default())
            .expect("open http dataset");
        (store, http)
    }

    #[test]
    fn setup_is_consistent() {
        let s = fig2_setup(1234, 7);
        assert_eq!(s.spec.columns, 10);
        assert_eq!(s.spec.rows, 1234);
        assert_eq!(s.workload.len(), 7);
        for q in &s.workload.queries {
            assert!(s.spec.domain.contains_rect(&q.window));
        }
    }

    #[test]
    fn every_backend_serves_the_same_dataset() {
        let spec = default_spec(250, 31);
        let reference = collect(&cached_csv(&spec), spec.columns);
        let zone = cached_zone(&spec);
        assert_eq!(collect(&zone, spec.columns), reference, "zone");
        let mapped =
            ZoneFile::open_mapped(zone.path().expect("cached zone is on disk")).expect("map");
        assert_eq!(collect(&mapped, spec.columns), reference, "mmap");
        let latency = LatencyFile::new(
            Box::new(zone),
            std::time::Duration::ZERO,
            std::time::Duration::ZERO,
        );
        assert_eq!(collect(&latency, spec.columns), reference, "latency");
        let (_store, http) = served_zone(&spec);
        assert_eq!(collect(&http, spec.columns), reference, "http");
        assert!(
            http.counters().http_requests() > 0,
            "http reads went over the wire"
        );
    }

    #[test]
    fn csv_and_zone_caches_coexist_with_equal_content() {
        let spec = default_spec(400, 23);
        let csv = cached_csv(&spec);
        let zone = cached_zone(&spec);
        assert_eq!(zone.n_rows(), 400);
        assert!(
            zone.size_bytes() < csv.size_bytes() * 2,
            "sanity: both caches materialized"
        );
        // Same rows in the same order under both representations.
        assert_eq!(collect(&csv, spec.columns), collect(&zone, spec.columns));
        // Second call hits the cache (open validates, no rewrite).
        let again = cached_zone(&spec);
        assert_eq!(again.size_bytes(), zone.size_bytes());
    }

    #[test]
    fn cached_backend_serves_the_dataset_through_the_block_cache() {
        // The served zone image behind the block cache serves the
        // same rows as the raw zone file.
        let spec = default_spec(250, 31);
        let (_store, http) = served_zone(&spec);
        let cached = CachedFile::with_config(Box::new(http), CacheConfig::new(4 << 20, 0));
        assert!(cached.is_attached(), "http backend binds the cache");
        assert_eq!(
            collect(&cached, spec.columns),
            collect(&cached_zone(&spec), spec.columns)
        );
    }

    #[test]
    fn small_setup_scales_rows_only() {
        let s = small_setup(2_000);
        assert_eq!(s.spec.rows, 2_000);
        assert_eq!(s.spec.columns, 10);
        assert_eq!(s.workload.len(), 12);
        assert!(s.init.domain.is_some());
    }

    #[test]
    fn cache_round_trip() {
        let spec = default_spec(500, 7);
        let a = cached_csv(&spec);
        let size_a = a.size_bytes();
        let b = cached_csv(&spec); // second call must hit the cache
        assert_eq!(size_a, b.size_bytes());
        assert_eq!(row_count(&b), 500);
    }

    #[test]
    fn racing_first_writers_never_open_a_partial_dataset() {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let seed = (u64::from(std::process::id()) << 32) | u64::from(nanos);
        // A spec no earlier run cached (its seed is unique to this run),
        // in generation order, so a writer streams its rows out while it
        // generates them.
        let spec = DatasetSpec {
            order: pai_storage::RowOrder::Generated,
            ..default_spec(20_000, seed)
        };
        let path = cache_dir().join(cache_key(&spec, "csv"));
        assert!(!path.exists(), "the spec must not be cached yet");

        let counts: Vec<u64> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let spec = &spec;
                    sc.spawn(move || {
                        // Staggered starts: the later threads find the
                        // first one's dataset while it is being written.
                        std::thread::sleep(std::time::Duration::from_millis(30 * i));
                        row_count(&cached_csv(spec))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![spec.rows; 4], "a thread read a partial CSV");
        std::fs::remove_file(&path).expect("remove the test's dataset");
    }
}
