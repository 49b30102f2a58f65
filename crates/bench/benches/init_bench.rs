//! Ablation A5b: initialization cost — the one pipelined build at each
//! width, metadata policies, and grid granularity (the "data-to-analysis
//! time" the in-situ paradigm minimizes).
//!
//! Every arm runs the same build path and produces the same index bit for
//! bit; the `width/N` arms spell the parser-thread count out through
//! `build_parallel`, the others let `build` take the machine's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pai_bench::default_spec;
use pai_index::init::{build, build_parallel, GridSpec, InitConfig};
use pai_index::MetadataPolicy;

fn bench_init(c: &mut Criterion) {
    let spec = default_spec(120_000, 42);
    let file = pai_bench::cached_file(&spec);

    let mut group = c.benchmark_group("init");
    group.sample_size(10);
    group.throughput(Throughput::Elements(spec.rows));

    for (name, metadata) in [
        ("meta_all", MetadataPolicy::AllNumeric),
        ("meta_one", MetadataPolicy::Attrs(vec![2])),
        ("meta_none", MetadataPolicy::None),
    ] {
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 16, ny: 16 },
            domain: Some(spec.domain),
            metadata,
        };
        group.bench_with_input(BenchmarkId::new("metadata", name), &cfg, |b, cfg| {
            b.iter(|| build(&file, cfg).expect("init").0.total_objects())
        });
    }

    for threads in [1usize, 2, 4] {
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 16, ny: 16 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        group.bench_with_input(BenchmarkId::new("width", threads), &threads, |b, &t| {
            b.iter(|| {
                build_parallel(&file, &cfg, t)
                    .expect("init")
                    .0
                    .total_objects()
            })
        });
    }

    for n in [8usize, 32] {
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: n, ny: n },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        group.bench_with_input(BenchmarkId::new("grid", n), &cfg, |b, cfg| {
            b.iter(|| build(&file, cfg).expect("init").0.total_objects())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_init);
criterion_main!(benches);
