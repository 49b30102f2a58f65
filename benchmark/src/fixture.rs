//! The shared fixture: dataset shape, generation, files, query paths.
//!
//! The shape is the repo's evaluation default (`pai_bench::default_spec`:
//! 10 numeric columns, 5 Gaussian clusters over a 30 % uniform background,
//! smooth-field values, Z-order row order) re-declared here so the
//! benchmark depends on neither `pai-bench` nor the program's generator.
//! Cluster centres and the exploration paths ([`path_rng`]) are fixed; the
//! seed only moves the samples and the ingest feed, so runs on different
//! seeds put the same analyst script over statistically equal data.

use std::io::BufWriter;
use std::path::{Path, PathBuf};

use partial_adaptive_indexing::pai_storage::CsvWriter;
use partial_adaptive_indexing::prelude::*;

use crate::rng::Rng;

/// Rows in the shared fixture (cut from the issue's 2 000 000 so that three
/// set-ups plus the measured phase fit the driver's per-run budget).
pub const ROWS: usize = 1_000_000;
pub const COLUMNS: usize = 10;
pub const DOMAIN_MAX: f64 = 1000.0;
const CLUSTERS: usize = 5;
/// Cluster σ: 5 % of the domain side.
const SIGMA: f64 = 0.05 * DOMAIN_MAX;
const BACKGROUND: f64 = 0.3;
/// Query windows cover 2 % of the domain unless a workload zooms.
pub const WINDOW_SIDE: f64 = 141.421_356_237_309_5;
/// Rows per ingest batch on `serve-ingest`.
pub const INGEST_BATCH_ROWS: usize = 1024;

// RNG streams: one per kind of input, so changing one kind never moves the
// others drawn from the same seed.
const STREAM_DATA: u64 = 1;
const STREAM_PATHS: u64 = 2;
const STREAM_INGEST: u64 = 3;

/// The stream every workload draws its exploration paths from. It does not
/// depend on `--seed`: the analyst's script is part of the workload, the
/// seed draws the data it runs over. (Paths drawn per seed made every
/// latency metric swing 10–150 % between seeds — a pan that wanders out of
/// a cluster does a fraction of the work of one that stays — which no
/// number of repetitions that fits a run averages out.)
pub fn path_rng() -> Rng {
    Rng::new(0x5EED_0FA1_1CE5, STREAM_PATHS)
}

/// A half-open query window `[x0, x1) × [y0, y1)`, in the benchmark's own
/// terms; converted to the program's `Rect` only at the call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Win {
    pub x0: f64,
    pub x1: f64,
    pub y0: f64,
    pub y1: f64,
}

impl Win {
    pub const DOMAIN: Win = Win {
        x0: 0.0,
        x1: DOMAIN_MAX,
        y0: 0.0,
        y1: DOMAIN_MAX,
    };

    pub fn centered(cx: f64, cy: f64, side: f64) -> Win {
        Win {
            x0: cx - side / 2.0,
            x1: cx + side / 2.0,
            y0: cy - side / 2.0,
            y1: cy + side / 2.0,
        }
    }

    pub fn width(&self) -> f64 {
        self.x1 - self.x0
    }

    pub fn height(&self) -> f64 {
        self.y1 - self.y0
    }

    pub fn center(&self) -> (f64, f64) {
        ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)
    }

    pub fn shifted(&self, dx: f64, dy: f64) -> Win {
        Win {
            x0: self.x0 + dx,
            x1: self.x1 + dx,
            y0: self.y0 + dy,
            y1: self.y1 + dy,
        }
    }

    /// Translates the window back inside `bounds` (it must fit).
    pub fn clamped_into(&self, bounds: &Win) -> Win {
        let dx = (bounds.x0 - self.x0).max(0.0) + (bounds.x1 - self.x1).min(0.0);
        let dy = (bounds.y0 - self.y0).max(0.0) + (bounds.y1 - self.y1).min(0.0);
        self.shifted(dx, dy)
    }

    #[inline]
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    pub fn rect(&self) -> Rect {
        Rect::new(self.x0, self.x1, self.y0, self.y1)
    }
}

/// Fixed, well-spread cluster centres inside the middle 80 % of the domain
/// (golden-ratio sequence, as the program's generator places them).
pub fn cluster_centers() -> [(f64, f64); CLUSTERS] {
    std::array::from_fn(|i| {
        let fx = (0.5 + i as f64 * 0.618_033_988_749_895) % 1.0;
        let fy = (0.75 + i as f64 * 0.381_966_011_250_105) % 1.0;
        (DOMAIN_MAX * (0.1 + 0.8 * fx), DOMAIN_MAX * (0.1 + 0.8 * fy))
    })
}

/// A generated dataset: row-major values, rows in Z-order of their axis
/// pair (columns 0 and 1).
pub struct Dataset {
    data: Vec<f64>,
}

impl Dataset {
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(COLUMNS)
    }

    #[cfg(test)]
    pub fn from_rows(rows: &[[f64; COLUMNS]]) -> Dataset {
        Dataset {
            data: rows.iter().flatten().copied().collect(),
        }
    }
}

/// Smooth per-column spatial field in `[-1, 1]` plus bounded noise: tiles
/// see narrow value ranges, the favourable case for min/max-bounded CIs.
fn fill_values(x: f64, y: f64, rng: &mut Rng, out: &mut Vec<f64>) {
    use std::f64::consts::TAU;
    let (u, v) = (x / DOMAIN_MAX, y / DOMAIN_MAX);
    for col in 2..COLUMNS {
        let k = col as f64;
        let a = (TAU * (u * (1.0 + 0.5 * k) + 0.13 * k)).sin();
        let b = (TAU * (v * (1.0 + 0.3 * k) + 0.29 * k)).cos();
        out.push(100.0 + 30.0 * (a + b) / 2.0 + rng.range(-3.0, 3.0));
    }
}

/// A point from a Gaussian blob at `center`, redrawn until inside the
/// half-open domain.
fn blob_point(center: (f64, f64), sigma: f64, rng: &mut Rng) -> (f64, f64) {
    loop {
        let (gx, gy) = rng.gaussian_pair();
        let (x, y) = (center.0 + gx * sigma, center.1 + gy * sigma);
        if Win::DOMAIN.contains(x, y) {
            return (x, y);
        }
    }
}

fn spread_bits(v: u16) -> u32 {
    let mut x = v as u32;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

fn morton(x: f64, y: f64) -> u32 {
    let q = |v: f64| (v / DOMAIN_MAX * 65535.0).clamp(0.0, 65535.0) as u16;
    spread_bits(q(x)) | (spread_bits(q(y)) << 1)
}

/// Generates the fixture's rows from `seed`.
pub fn generate(seed: u64, rows: usize) -> Dataset {
    let mut rng = Rng::new(seed, STREAM_DATA);
    let centers = cluster_centers();
    let mut raw = Vec::with_capacity(rows * COLUMNS);
    for _ in 0..rows {
        let (x, y) = if rng.unit() < BACKGROUND {
            (rng.range(0.0, DOMAIN_MAX), rng.range(0.0, DOMAIN_MAX))
        } else {
            blob_point(centers[rng.below(CLUSTERS)], SIGMA, &mut rng)
        };
        raw.push(x);
        raw.push(y);
        fill_values(x, y, &mut rng, &mut raw);
    }
    // Z-order the rows: spatially clustered storage, the layout zone maps
    // can prune. Ties break on generation order, so the sort is total.
    let mut order: Vec<(u32, u32)> = (0..rows)
        .map(|i| (morton(raw[i * COLUMNS], raw[i * COLUMNS + 1]), i as u32))
        .collect();
    order.sort_unstable();
    // Permute in place, cycle by cycle: a second copy of the rows would make
    // the generator, not the program, the process's peak memory.
    const DONE: u32 = u32::MAX;
    let mut row = [0.0; COLUMNS];
    for start in 0..rows {
        if order[start].1 == DONE {
            continue;
        }
        row.copy_from_slice(&raw[start * COLUMNS..(start + 1) * COLUMNS]);
        let mut dest = start;
        loop {
            let src = std::mem::replace(&mut order[dest].1, DONE) as usize;
            if src == start {
                raw[dest * COLUMNS..(dest + 1) * COLUMNS].copy_from_slice(&row);
                break;
            }
            raw.copy_within(src * COLUMNS..(src + 1) * COLUMNS, dest * COLUMNS);
            dest = src;
        }
    }
    Dataset { data: raw }
}

/// Where `serve-ingest`'s appended rows land.
pub const INGEST_CENTER: (f64, f64) = (640.0, 360.0);
const INGEST_SIGMA: f64 = 40.0;

/// The ingest feed: `batches` batches of [`INGEST_BATCH_ROWS`] rows around
/// [`INGEST_CENTER`], in the row shape `PaiClient::ingest` takes.
pub fn ingest_feed(seed: u64, batches: usize) -> Vec<Vec<Vec<f64>>> {
    let mut rng = Rng::new(seed, STREAM_INGEST);
    (0..batches)
        .map(|_| {
            (0..INGEST_BATCH_ROWS)
                .map(|_| {
                    let (x, y) = blob_point(INGEST_CENTER, INGEST_SIGMA, &mut rng);
                    let mut row = Vec::with_capacity(COLUMNS);
                    row.push(x);
                    row.push(y);
                    fill_values(x, y, &mut rng, &mut row);
                    row
                })
                .collect()
        })
        .collect()
}

/// The paper's exploration path: `n` windows of the start's size, each
/// shifted 10–20 % of the window extent in a random direction and kept
/// inside `bounds`.
pub fn pan_path(rng: &mut Rng, start: Win, n: usize, bounds: &Win) -> Vec<Win> {
    let mut w = start.clamped_into(bounds);
    (0..n)
        .map(|_| {
            let here = w;
            let frac = rng.range(0.10, 0.20);
            let angle = rng.range(0.0, std::f64::consts::TAU);
            w = w
                .shifted(
                    angle.cos() * frac * w.width(),
                    angle.sin() * frac * w.height(),
                )
                .clamped_into(bounds);
            here
        })
        .collect()
}

/// Zipf(s = 1.2) rank sampler over `n` items (inverse CDF).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(1.2)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The crude initial index every workload starts from.
pub fn init_config() -> InitConfig {
    InitConfig {
        grid: GridSpec::Fixed { nx: 8, ny: 8 },
        domain: Some(Win::DOMAIN.rect()),
        metadata: MetadataPolicy::AllNumeric,
    }
}

/// A per-run directory inside the benchmark's `out/`, removed on drop. The
/// fixture is regenerated into a fresh one on every run, never reused.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(out_dir: &Path) -> std::io::Result<Scratch> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = out_dir.join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes `ds` as the raw CSV an analyst would start from and opens it.
pub fn write_csv(ds: &Dataset, path: &Path) -> Result<CsvFile> {
    let schema = Schema::synthetic(COLUMNS);
    let file = BufWriter::new(std::fs::File::create(path)?);
    let mut w = CsvWriter::new(file, &schema, CsvFormat::default())?;
    for row in ds.iter() {
        w.write_row(row)?;
    }
    w.finish()?;
    CsvFile::open(path, schema, CsvFormat::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_domain_and_z_ordered() {
        let a = generate(9, 2000);
        let b = generate(9, 2000);
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, generate(10, 2000).data);
        assert_eq!(a.iter().count(), 2000);
        // The in-place permutation moved every row exactly once: none was
        // duplicated over another.
        let distinct: std::collections::BTreeSet<u64> = a.iter().map(|r| r[0].to_bits()).collect();
        assert_eq!(distinct.len(), 2000);
        let mut last = 0;
        for r in a.iter() {
            assert!(Win::DOMAIN.contains(r[0], r[1]));
            assert!(r[2..].iter().all(|v| (67.0..=133.0).contains(v)));
            let key = morton(r[0], r[1]);
            assert!(key >= last, "rows must be in Z-order");
            last = key;
        }
    }

    #[test]
    fn clusters_hold_most_of_the_mass() {
        let ds = generate(3, 20_000);
        let near = ds
            .iter()
            .filter(|r| {
                cluster_centers()
                    .iter()
                    .any(|c| (r[0] - c.0).hypot(r[1] - c.1) < 3.0 * SIGMA)
            })
            .count();
        assert!(near > 14_000, "only {near} of 20000 rows near a centre");
    }

    #[test]
    fn pan_path_stays_inside_and_moves() {
        let mut rng = path_rng();
        let bounds = Win::DOMAIN;
        let path = pan_path(
            &mut rng,
            Win::centered(30.0, 990.0, WINDOW_SIDE),
            100,
            &bounds,
        );
        assert_eq!(path.len(), 100);
        for w in &path {
            assert!(w.x0 >= 0.0 && w.x1 <= DOMAIN_MAX && w.y0 >= 0.0 && w.y1 <= DOMAIN_MAX);
            assert!((w.width() - WINDOW_SIDE).abs() < 1e-9);
        }
        assert!(path.windows(2).any(|p| p[0] != p[1]));
    }

    #[test]
    fn ingest_feed_lands_in_the_domain() {
        let feed = ingest_feed(1, 3);
        assert_eq!(feed.len(), 3);
        for batch in &feed {
            assert_eq!(batch.len(), INGEST_BATCH_ROWS);
            for row in batch {
                assert_eq!(row.len(), COLUMNS);
                assert!(Win::DOMAIN.contains(row[0], row[1]));
            }
        }
        assert_eq!(feed, ingest_feed(1, 3));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(8);
        let mut rng = Rng::new(2, 0);
        let mut hits = [0usize; 8];
        for _ in 0..4000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[3] && hits[3] > hits[7], "{hits:?}");
    }
}
