//! The repo benchmark: four exploration workloads, data-to-analysis metrics
//! end to end and per layer. See `README.md`; run through `run.sh`.
//!
//! `pai-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! generates the fixture from the seed, measures, verifies every answer
//! against the benchmark's own oracle, and prints one JSON object as the
//! last line of standard output: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end set with `--trace 0`, the per-layer set with
//! `--trace 1`.

mod compare;
mod fixture;
mod json;
mod metrics;
mod oracle;
mod probes;
mod rng;
mod stats;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::{Outcome, RunOpts};

const USAGE: &str = "usage: pai-benchmark --workload <name> [--seed <n>] [--seconds <n>] \
[--trace <0|1>] [--out <dir>]
       pai-benchmark --list
       pai-benchmark --compare <first.jsonl> <second.jsonl> --bounds <BENCHMARK.json>";

struct Args {
    workload: Option<String>,
    opts: RunOpts,
    list: bool,
    compare: Vec<PathBuf>,
    bounds: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        opts: RunOpts {
            seed: 42,
            seconds: 10.0,
            trace: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        list: false,
        compare: Vec::new(),
        bounds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--list" => args.list = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.opts.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.opts.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                args.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => args.opts.out_dir = PathBuf::from(value()?),
            "--compare" => args.compare = vec![PathBuf::from(value()?), PathBuf::from(value()?)],
            "--bounds" => args.bounds = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    let run = match name {
        "cold-csv" => workloads::cold_csv::run,
        "warm-zone" => workloads::warm_zone::run,
        "remote-reexplore" => workloads::remote::run,
        "serve-ingest" => workloads::serve_ingest::run,
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {:?})",
                metrics::WORKLOADS
            ))
        }
    };
    run(opts).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in metrics::WORKLOADS {
            println!("{w}");
        }
        return ExitCode::SUCCESS;
    }
    if let [first, second] = args.compare.as_slice() {
        let Some(bounds) = args.bounds.as_deref() else {
            eprintln!("--compare needs --bounds\n{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(first, second, bounds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: build with --release");
        return ExitCode::from(2);
    }
    let opts = args.opts;
    println!(
        "workload={workload} seed={} seconds={} trace={} rows={} threads={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        fixture::ROWS,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let outcome = match run_workload(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.log {
        println!("{line}");
    }
    if let Some(name) = outcome.metrics.first_non_finite() {
        eprintln!("{workload}: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    for (name, unit, value) in outcome.metrics.iter() {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = opts.out_dir.join(format!("trace-{workload}.json"));
        if let Err(e) = std::fs::write(&path, tracer.to_json().encode()) {
            eprintln!("{workload}: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace: {} spans -> {}", tracer.len(), path.display());
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_json()),
    ]);
    println!("{}", result.encode());
    ExitCode::SUCCESS
}
