//! Ablation studies A1–A5 (described in `docs/BENCHMARKS.md`):
//! the design-choice knobs the paper calls out (selection score α,
//! tile-selection policy, split/read policies, data density, value-model
//! smoothness).
//!
//! Usage:
//! ```text
//! cargo run -p pai-bench --release --bin ablations
//! ```

use pai_bench::{cached_csv, default_spec, env_u64};
use pai_common::AggregateFunction;
use pai_core::{EngineConfig, SelectionPolicy};
use pai_index::init::{GridSpec, InitConfig};
use pai_index::{AdaptConfig, MetadataPolicy, ReadPolicy, SplitPolicy};
use pai_query::{run_workload, Method, Workload};
use pai_storage::{DatasetSpec, PointDistribution, ValueModel};

fn standard_workload(spec: &DatasetSpec, n: usize) -> Workload {
    let start = Workload::centered_window(&spec.domain, 0.02)
        .shifted(-150.0, -150.0)
        .clamped_into(&spec.domain);
    Workload::shifted_sequence(&spec.domain, start, n, vec![AggregateFunction::Mean(2)], 42)
}

fn init_for(spec: &DatasetSpec) -> InitConfig {
    InitConfig {
        grid: GridSpec::Fixed { nx: 8, ny: 8 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    }
}

fn run_line(
    label: &str,
    file: &dyn pai_storage::RawFile,
    init: &InitConfig,
    cfg: &EngineConfig,
    wl: &Workload,
    method: Method,
) {
    let run = run_workload(file, init, cfg, wl, method).expect(label);
    println!(
        "{label:>28}: total {:.4}s | {:>9} objects | {:>5} tiles processed | {:>5} splits",
        run.total_elapsed().as_secs_f64(),
        run.total_objects_read(),
        run.records
            .iter()
            .map(|r| r.stats.tiles_processed)
            .sum::<usize>(),
        run.records
            .iter()
            .map(|r| r.stats.tiles_split)
            .sum::<usize>(),
    );
}

fn main() {
    let rows = env_u64("PAI_BENCH_ROWS", 100_000);
    let queries = env_u64("PAI_BENCH_QUERIES", 30) as usize;
    let spec = default_spec(rows, 42);
    let file = cached_csv(&spec);
    let init = init_for(&spec);
    let wl = standard_workload(&spec, queries);
    let phi = Method::Approx { phi: 0.05 };
    println!(
        "ablations on {} rows, {} queries, phi=5% unless noted\n",
        rows, queries
    );

    // ---- A1: alpha sweep for the selection score --------------------------
    println!("[A1] selection-score alpha sweep (s = a*width + (1-a)/count):");
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = EngineConfig {
            policy: SelectionPolicy::ScoreGreedy { alpha },
            ..EngineConfig::paper_evaluation()
        };
        run_line(&format!("alpha={alpha}"), &file, &init, &cfg, &wl, phi);
    }

    // ---- A2: policy shootout ----------------------------------------------
    println!("\n[A2] tile-selection policies:");
    for policy in [
        SelectionPolicy::ScoreGreedy { alpha: 1.0 },
        SelectionPolicy::ScoreGreedy { alpha: 0.0 },
        SelectionPolicy::CostBenefit,
        SelectionPolicy::Random { seed: 7 },
    ] {
        let cfg = EngineConfig {
            policy,
            ..EngineConfig::paper_evaluation()
        };
        run_line(&policy.name(), &file, &init, &cfg, &wl, phi);
    }

    // ---- A3: split and read policies ---------------------------------------
    println!("\n[A3] split policies (phi=5%):");
    for (name, split) in [
        ("query-aligned", SplitPolicy::QueryAligned),
        ("grid 2x2", SplitPolicy::Grid { rows: 2, cols: 2 }),
        ("grid 4x4", SplitPolicy::Grid { rows: 4, cols: 4 }),
        ("kd-median", SplitPolicy::KdMedian),
        ("no split", SplitPolicy::NoSplit),
    ] {
        let cfg = EngineConfig {
            adapt: AdaptConfig {
                split,
                ..Default::default()
            },
            ..EngineConfig::paper_evaluation()
        };
        run_line(name, &file, &init, &cfg, &wl, phi);
    }
    println!("\n[A3b] read policies (phi=5%):");
    for (name, read) in [
        ("window-only", ReadPolicy::WindowOnly),
        ("full-tile", ReadPolicy::FullTile),
    ] {
        let cfg = EngineConfig {
            adapt: AdaptConfig {
                read,
                ..Default::default()
            },
            ..EngineConfig::paper_evaluation()
        };
        run_line(name, &file, &init, &cfg, &wl, phi);
    }

    // ---- Eager refinement (the paper's future-work knob) -------------------
    println!("\n[A3c] eager refinement (phi=5%):");
    for (name, eager) in [
        ("off (paper)", pai_core::EagerRefinement::Off),
        ("2 extra tiles", pai_core::EagerRefinement::ExtraTiles(2)),
        ("8 extra tiles", pai_core::EagerRefinement::ExtraTiles(8)),
    ] {
        let cfg = EngineConfig {
            eager,
            ..EngineConfig::paper_evaluation()
        };
        run_line(name, &file, &init, &cfg, &wl, phi);
    }

    // ---- A4: density / value-model sensitivity -----------------------------
    println!("\n[A4] point distribution (fresh datasets, phi=5%):");
    for (name, dist) in [
        ("uniform", PointDistribution::Uniform),
        (
            "clusters s=0.05",
            PointDistribution::GaussianClusters {
                clusters: 5,
                sigma_frac: 0.05,
                background: 0.3,
            },
        ),
        (
            "dense clusters s=0.02",
            PointDistribution::GaussianClusters {
                clusters: 5,
                sigma_frac: 0.02,
                background: 0.1,
            },
        ),
        (
            "diagonal band",
            PointDistribution::DiagonalBand { width_frac: 0.08 },
        ),
    ] {
        let spec_d = DatasetSpec {
            distribution: dist,
            ..default_spec(rows, 42)
        };
        let file_d = cached_csv(&spec_d);
        let wl_d = standard_workload(&spec_d, queries);
        run_line(
            name,
            &file_d,
            &init_for(&spec_d),
            &EngineConfig::paper_evaluation(),
            &wl_d,
            phi,
        );
    }

    println!("\n[A4b] value model (phi=5%):");
    for (name, vm) in [
        (
            "smooth field (default)",
            ValueModel::SmoothField {
                base: 50.0,
                amplitude: 40.0,
                noise: 5.0,
            },
        ),
        (
            "rough field (noise 20)",
            ValueModel::SmoothField {
                base: 50.0,
                amplitude: 40.0,
                noise: 20.0,
            },
        ),
        (
            "iid uniform [0,100]",
            ValueModel::UniformNoise { lo: 0.0, hi: 100.0 },
        ),
    ] {
        let spec_v = DatasetSpec {
            value_model: vm,
            seed: 43,
            ..default_spec(rows, 43)
        };
        let file_v = cached_csv(&spec_v);
        let wl_v = standard_workload(&spec_v, queries);
        run_line(
            name,
            &file_v,
            &init_for(&spec_v),
            &EngineConfig::paper_evaluation(),
            &wl_v,
            phi,
        );
    }

    // ---- A5: initial grid granularity --------------------------------------
    println!("\n[A5] initial grid (phi=5%):");
    for n in [4usize, 8, 16, 32] {
        let init_n = InitConfig {
            grid: GridSpec::Fixed { nx: n, ny: n },
            ..init_for(&spec)
        };
        run_line(
            &format!("grid {n}x{n}"),
            &file,
            &init_n,
            &EngineConfig::paper_evaluation(),
            &wl,
            phi,
        );
    }

    println!("\n(baseline for comparison)");
    run_line(
        "exact baseline",
        &file,
        &init,
        &EngineConfig::paper_evaluation(),
        &wl,
        Method::Exact,
    );
}
