//! Synthetic dataset generation.
//!
//! Reproduces the family of the paper's evaluation dataset: a CSV file with
//! 10 numeric columns, where the first two play the axis role. The paper
//! inherits the generator from the V ALINOR/VETI papers [3, 11]; those use
//! synthetic point sets with both uniform regions and dense clusters
//! (motivating the "regions with a high density of objects" problem), so we
//! provide:
//!
//! * [`PointDistribution::Uniform`] — uniform over the domain;
//! * [`PointDistribution::GaussianClusters`] — a mixture of Gaussian blobs
//!   over a uniform background (dense areas);
//! * [`PointDistribution::DiagonalBand`] — skewed mass along a band, a
//!   stand-in for road/trajectory-like geospatial data.
//!
//! Non-axis values come from a [`ValueModel`]. The paper does not pin the
//! value distribution; it matters for AQP because per-tile `[min, max]`
//! metadata is what bounds the confidence interval. `SmoothField` (spatially
//! correlated values + bounded noise, e.g. prices/ratings/sensor readings)
//! gives tiles narrow value ranges; `UniformNoise` is the adversarial case.
//! Benchmarks default to `SmoothField` and ablate the choice (the `ablations`
//! bin's A4 row).

use std::f64::consts::PI;
use std::path::Path;

use pai_common::geometry::{Point2, Rect};
use pai_common::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csv::{CsvFormat, CsvWriter};
use crate::raw::{CsvFile, MemFile};
use crate::schema::Schema;

/// Spatial distribution of the axis-attribute points.
#[derive(Debug, Clone, PartialEq)]
pub enum PointDistribution {
    /// Uniform over the whole domain.
    Uniform,
    /// `background` fraction uniform; the rest split evenly across Gaussian
    /// blobs with centers spread deterministically over the domain.
    GaussianClusters {
        /// Number of Gaussian blobs ("dense areas").
        clusters: usize,
        /// Blob standard deviation as a fraction of the domain diagonal.
        sigma_frac: f64,
        /// Fraction of points drawn uniformly (0 → everything clustered).
        background: f64,
    },
    /// Points concentrated around the main diagonal with Gaussian spread.
    DiagonalBand {
        /// Band half-width as a fraction of the domain height.
        width_frac: f64,
    },
}

/// Model for the non-axis attribute values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueModel {
    /// `base + amplitude·g_k(x, y) + noise`, where `g_k` is a smooth
    /// per-column spatial field in [-1, 1]. Spatially correlated values:
    /// tiles see narrow value ranges, the favourable case for deterministic
    /// bounds.
    SmoothField {
        /// Field mean.
        base: f64,
        /// Peak deviation of the smooth component from `base`.
        amplitude: f64,
        /// Peak magnitude of the per-value uniform noise term.
        noise: f64,
    },
    /// i.i.d. uniform values in `[lo, hi]` — no spatial structure, the
    /// adversarial case for min/max-based confidence intervals.
    UniformNoise {
        /// Lower bound of the uniform draw.
        lo: f64,
        /// Upper bound of the uniform draw.
        hi: f64,
    },
}

impl Default for ValueModel {
    fn default() -> Self {
        // Ratings-like values: mean 50, smooth spatial trend ±40, ±5 noise.
        ValueModel::SmoothField {
            base: 50.0,
            amplitude: 40.0,
            noise: 5.0,
        }
    }
}

/// Physical row order of the emitted file.
///
/// Zone maps (per-block min/max, see `pai_storage::zone`) prune blocks only
/// when storage order correlates with the axis values: a block of randomly
/// interleaved points spans the whole domain and can never be proven dead.
/// Real deployments cluster data once at conversion time; [`RowOrder::
/// ZOrder`] models that. The order is part of the spec, so **every backend
/// built from the spec shares one row order** — backends stay answer- and
/// trajectory-equivalent, only their pruning power differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowOrder {
    /// Rows appear in generation order — an unclustered append log, the
    /// worst case for zone maps.
    #[default]
    Generated,
    /// Rows sorted by the Morton (Z-order) code of their axis pair —
    /// spatially clustered storage, the layout zone maps want.
    ZOrder,
}

/// Full specification of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Total number of objects (rows).
    pub rows: u64,
    /// Total number of columns, axis pair included (paper: 10).
    pub columns: usize,
    /// Domain of the two axis attributes.
    pub domain: Rect,
    /// Spatial distribution of the axis-attribute points.
    pub distribution: PointDistribution,
    /// Model generating the non-axis attribute values.
    pub value_model: ValueModel,
    /// RNG seed; equal specs generate byte-identical files.
    pub seed: u64,
    /// Physical row order of the emitted file (same for every backend).
    pub order: RowOrder,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        DatasetSpec {
            rows: 100_000,
            columns: 10,
            domain: Rect::new(0.0, 1000.0, 0.0, 1000.0),
            distribution: PointDistribution::GaussianClusters {
                clusters: 5,
                sigma_frac: 0.05,
                background: 0.3,
            },
            value_model: ValueModel::default(),
            seed: 42,
            order: RowOrder::default(),
        }
    }
}

/// Spreads the 16 bits of `v` to the even bit positions of a `u32`.
fn spread_bits(v: u16) -> u32 {
    let mut x = v as u32;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

/// Morton (Z-order) key of a point, quantized to 16 bits per axis over the
/// domain. Public so the online compactor re-clusters with the *same* key
/// the static [`RowOrder::ZOrder`] layout uses — post-compaction block
/// skipping is then directly comparable to a statically Z-ordered file.
pub fn morton_key(p: Point2, domain: &Rect) -> u32 {
    let q = |v: f64, lo: f64, span: f64| -> u16 {
        if span <= 0.0 {
            return 0;
        }
        (((v - lo) / span * 65535.0).clamp(0.0, 65535.0)) as u16
    };
    let qx = q(p.x, domain.x_min, domain.width());
    let qy = q(p.y, domain.y_min, domain.height());
    spread_bits(qx) | (spread_bits(qy) << 1)
}

impl DatasetSpec {
    /// Uniform variant of the default spec.
    pub fn uniform(rows: u64) -> Self {
        DatasetSpec {
            rows,
            distribution: PointDistribution::Uniform,
            ..Default::default()
        }
    }

    /// Clustered ("dense areas") variant of the default spec.
    pub fn clustered(rows: u64) -> Self {
        DatasetSpec {
            rows,
            ..Default::default()
        }
    }

    /// Schema matching this spec.
    pub fn schema(&self) -> Schema {
        Schema::synthetic(self.columns)
    }

    /// Iterator over the generated rows (axis pair first, then value
    /// columns), deterministic in `seed`.
    pub fn rows_iter(&self) -> RowGenerator {
        RowGenerator {
            spec: self.clone(),
            rng: StdRng::seed_from_u64(self.seed),
            emitted: 0,
            centers: self.cluster_centers(),
        }
    }

    /// The generated rows in the spec's **physical** order: generation
    /// order as-is, or buffered and Morton-sorted for [`RowOrder::ZOrder`].
    pub fn rows_physical(&self) -> Vec<Vec<f64>> {
        let mut rows: Vec<Vec<f64>> = self.rows_iter().collect();
        if self.order == RowOrder::ZOrder {
            let domain = self.domain;
            rows.sort_by_cached_key(|r| morton_key(Point2::new(r[0], r[1]), &domain));
        }
        rows
    }

    /// Writes the dataset as CSV to `path` and opens it as a [`CsvFile`].
    pub fn write_csv(&self, path: &Path, fmt: CsvFormat) -> Result<CsvFile> {
        let schema = self.schema();
        let file = std::fs::File::create(path)?;
        let mut w = CsvWriter::new(file, &schema, fmt)?;
        if self.order == RowOrder::Generated {
            // Streaming path: no buffering for the default order.
            for row in self.rows_iter() {
                w.write_row(&row)?;
            }
        } else {
            for row in self.rows_physical() {
                w.write_row(&row)?;
            }
        }
        w.finish()?;
        CsvFile::open(path, schema, fmt)
    }

    /// Materializes the dataset in memory (tests / small examples).
    pub fn build_mem(&self, fmt: CsvFormat) -> Result<MemFile> {
        MemFile::from_rows(self.schema(), fmt, self.rows_physical())
    }

    /// Writes the dataset in the zone-mapped compressed columnar format to
    /// `path` and opens it as a [`crate::ZoneFile`].
    pub fn write_zone(&self, path: &Path) -> Result<crate::ZoneFile> {
        let bytes = crate::zone::encode_zone_rows(&self.schema(), self.rows_physical())?;
        std::fs::write(path, &bytes)?;
        crate::ZoneFile::open(path)
    }

    /// Materializes the dataset as an in-memory zone-mapped compressed file.
    pub fn build_zone_mem(&self) -> Result<crate::ZoneFile> {
        crate::ZoneFile::from_rows(&self.schema(), self.rows_physical())
    }

    /// Deterministic cluster centers: low-discrepancy placement over the
    /// middle 80 % of the domain so blobs do not straddle the boundary.
    fn cluster_centers(&self) -> Vec<Point2> {
        let PointDistribution::GaussianClusters { clusters, .. } = self.distribution else {
            return Vec::new();
        };
        let d = &self.domain;
        let (w, h) = (d.width(), d.height());
        (0..clusters)
            .map(|i| {
                // Golden-ratio sequence: well-spread, reproducible.
                let fx = (0.5 + i as f64 * 0.618_033_988_749_895) % 1.0;
                let fy = (0.5 + i as f64 * 0.381_966_011_250_105 + 0.25) % 1.0;
                Point2::new(
                    d.x_min + w * (0.1 + 0.8 * fx),
                    d.y_min + h * (0.1 + 0.8 * fy),
                )
            })
            .collect()
    }
}

/// Iterator producing the rows of a [`DatasetSpec`].
pub struct RowGenerator {
    spec: DatasetSpec,
    rng: StdRng,
    emitted: u64,
    centers: Vec<Point2>,
}

impl RowGenerator {
    fn sample_point(&mut self) -> Point2 {
        let d = self.spec.domain;
        match &self.spec.distribution {
            PointDistribution::Uniform => Point2::new(
                self.rng.gen_range(d.x_min..d.x_max),
                self.rng.gen_range(d.y_min..d.y_max),
            ),
            PointDistribution::GaussianClusters {
                sigma_frac,
                background,
                ..
            } => {
                if self.centers.is_empty() || self.rng.gen::<f64>() < *background {
                    return Point2::new(
                        self.rng.gen_range(d.x_min..d.x_max),
                        self.rng.gen_range(d.y_min..d.y_max),
                    );
                }
                let c = self.centers[self.rng.gen_range(0..self.centers.len())];
                let diag = (d.width().powi(2) + d.height().powi(2)).sqrt();
                let sigma = sigma_frac * diag;
                loop {
                    let (gx, gy) = gaussian_pair(&mut self.rng);
                    let p = Point2::new(c.x + gx * sigma, c.y + gy * sigma);
                    if d.contains_point(p) {
                        return p;
                    }
                }
            }
            PointDistribution::DiagonalBand { width_frac } => {
                let x = self.rng.gen_range(d.x_min..d.x_max);
                let t = (x - d.x_min) / d.width();
                let mid = d.y_min + t * d.height();
                let (g, _) = gaussian_pair(&mut self.rng);
                let y = (mid + g * width_frac * d.height()).clamp(
                    d.y_min,
                    // Stay strictly inside the half-open domain.
                    f64::from_bits(d.y_max.to_bits() - 1),
                );
                Point2::new(x, y)
            }
        }
    }

    /// Smooth per-column spatial field in [-1, 1]; columns use different
    /// frequencies/phases so they are not perfectly correlated.
    fn field(&self, col: usize, p: Point2) -> f64 {
        let d = self.spec.domain;
        let u = (p.x - d.x_min) / d.width();
        let v = (p.y - d.y_min) / d.height();
        let k = col as f64;
        let a = (2.0 * PI * (u * (1.0 + 0.5 * k) + 0.13 * k)).sin();
        let b = (2.0 * PI * (v * (1.0 + 0.3 * k) + 0.29 * k)).cos();
        (a + b) / 2.0
    }
}

impl Iterator for RowGenerator {
    type Item = Vec<f64>;

    fn next(&mut self) -> Option<Vec<f64>> {
        if self.emitted >= self.spec.rows {
            return None;
        }
        self.emitted += 1;
        let p = self.sample_point();
        let mut row = Vec::with_capacity(self.spec.columns);
        row.push(p.x);
        row.push(p.y);
        for col in 2..self.spec.columns {
            let v = match self.spec.value_model {
                ValueModel::SmoothField {
                    base,
                    amplitude,
                    noise,
                } => base + amplitude * self.field(col, p) + self.rng.gen_range(-noise..=noise),
                ValueModel::UniformNoise { lo, hi } => self.rng.gen_range(lo..hi),
            };
            row.push(v);
        }
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.spec.rows - self.emitted) as usize;
        (left, Some(left))
    }
}

/// Box–Muller standard normal pair.
fn gaussian_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * PI * u2;
    (r * theta.cos(), r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawFile;

    #[test]
    fn generates_requested_shape() {
        let spec = DatasetSpec {
            rows: 100,
            columns: 5,
            ..Default::default()
        };
        let rows: Vec<_> = spec.rows_iter().collect();
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|r| r.len() == 5));
    }

    #[test]
    fn points_stay_in_domain() {
        for dist in [
            PointDistribution::Uniform,
            PointDistribution::GaussianClusters {
                clusters: 3,
                sigma_frac: 0.05,
                background: 0.2,
            },
            PointDistribution::DiagonalBand { width_frac: 0.05 },
        ] {
            let spec = DatasetSpec {
                rows: 2000,
                distribution: dist.clone(),
                ..Default::default()
            };
            for row in spec.rows_iter() {
                let p = Point2::new(row[0], row[1]);
                assert!(
                    spec.domain.contains_point(p),
                    "{dist:?} produced out-of-domain point {p:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = DatasetSpec {
            rows: 50,
            ..Default::default()
        };
        let a: Vec<_> = spec.rows_iter().collect();
        let b: Vec<_> = spec.rows_iter().collect();
        assert_eq!(a, b);
        let other = DatasetSpec { seed: 43, ..spec };
        let c: Vec<_> = other.rows_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn smooth_field_values_bounded() {
        let spec = DatasetSpec {
            rows: 500,
            value_model: ValueModel::SmoothField {
                base: 50.0,
                amplitude: 40.0,
                noise: 5.0,
            },
            ..Default::default()
        };
        for row in spec.rows_iter() {
            for &v in &row[2..] {
                assert!((5.0..=95.0).contains(&v), "value {v} outside envelope");
            }
        }
    }

    #[test]
    fn uniform_noise_values_bounded() {
        let spec = DatasetSpec {
            rows: 200,
            value_model: ValueModel::UniformNoise { lo: -1.0, hi: 1.0 },
            ..Default::default()
        };
        for row in spec.rows_iter() {
            for &v in &row[2..] {
                assert!((-1.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn clusters_concentrate_mass() {
        let spec = DatasetSpec {
            rows: 20_000,
            distribution: PointDistribution::GaussianClusters {
                clusters: 2,
                sigma_frac: 0.02,
                background: 0.0,
            },
            ..Default::default()
        };
        let centers = spec.cluster_centers();
        let diag = (spec.domain.width().powi(2) + spec.domain.height().powi(2)).sqrt();
        let near = spec
            .rows_iter()
            .filter(|r| {
                let p = Point2::new(r[0], r[1]);
                centers.iter().any(|c| {
                    let dx = p.x - c.x;
                    let dy = p.y - c.y;
                    (dx * dx + dy * dy).sqrt() < 0.06 * diag // 3 sigma
                })
            })
            .count();
        assert!(
            near as f64 > 0.95 * spec.rows as f64,
            "only {near} of {} points near centers",
            spec.rows
        );
    }

    #[test]
    fn mem_build_matches_spec() {
        let spec = DatasetSpec {
            rows: 20,
            columns: 4,
            ..Default::default()
        };
        let mem = spec.build_mem(CsvFormat::default()).unwrap();
        let mut n = 0;
        mem.scan(&mut |_, _, rec| {
            assert_eq!(rec.num_fields(), 4);
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 20);
    }

    #[test]
    fn zone_build_matches_generated_rows() {
        let spec = DatasetSpec {
            rows: 40,
            columns: 4,
            ..Default::default()
        };
        let zone = spec.build_zone_mem().unwrap();
        assert_eq!(zone.n_rows(), 40);
        let expected: Vec<_> = spec.rows_iter().collect();
        let mut i = 0;
        zone.scan(&mut |_, _, rec| {
            let mut got = Vec::new();
            rec.extract_f64(&[0, 1, 2, 3], &mut got)?;
            assert_eq!(got, expected[i], "row {i} must round-trip bit-exactly");
            i += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(i, 40);

        // The on-disk variant opens to the same content.
        let dir = std::env::temp_dir().join("pai_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.paizone");
        let disk = spec.write_zone(&path).unwrap();
        assert_eq!(disk.n_rows(), 40);
        assert_eq!(disk.size_bytes(), zone.size_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_write_round_trips_values() {
        let dir = std::env::temp_dir().join("pai_gen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.csv");
        let spec = DatasetSpec {
            rows: 30,
            columns: 3,
            ..Default::default()
        };
        let file = spec.write_csv(&path, CsvFormat::default()).unwrap();
        let expected: Vec<_> = spec.rows_iter().collect();
        let mut i = 0;
        file.scan(&mut |_, _, rec| {
            let mut got = Vec::new();
            rec.extract_f64(&[0, 1, 2], &mut got)?;
            assert_eq!(got, expected[i], "row {i} must round-trip exactly");
            i += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(i, 30);
        std::fs::remove_file(&path).ok();
    }
}
