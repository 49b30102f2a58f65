//! `run.sh --agree`: do two sets of runs of the same code agree?
//!
//! Each set is a file of lines `{"workload": …, "trace": 0|1, "result": …}`
//! as `run.sh` writes them. For every workload's untraced result, each
//! end-to-end metric of the second set may differ from the first by at most
//! its bound in `BENCHMARK.json`, in either direction — the code is the same,
//! so a second set that is *better* by more than the bound is noise the bound
//! cannot tell from a gain; on the single-threaded workloads the
//! deterministic meters must not differ at all.

use std::path::Path;

use crate::json::Json;

/// Meters that repeat exactly when one thread drives the load.
const EXACT_METERS: [&str; 2] = ["bytes_read_mb", "index_mem_mb"];
const SINGLE_THREADED: [&str; 2] = ["cold-csv", "warm-zone"];

fn read_set(path: &Path) -> Result<Vec<Json>, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn untraced<'a>(set: &'a [Json], workload: &str) -> Option<&'a Json> {
    set.iter()
        .find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .and_then(|r| r.get("result"))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: &str) -> f64 {
    let delta = (second - first) / first;
    if better == "higher" {
        -delta
    } else {
        delta
    }
}

/// Two runs of the same code agree on a metric when neither is worse than
/// the other by more than `bound`.
pub fn within(first: f64, second: f64, better: &str, bound: f64) -> bool {
    worsening(first, second, better).abs() <= bound
}

/// Prints both values and the spread per metric × workload; `Ok(true)` when
/// the sets agree.
pub fn run(first: &Path, second: &Path, bounds: &Path) -> Result<bool, String> {
    let (a, b) = (read_set(first)?, read_set(second)?);
    let doc = Json::parse(&std::fs::read_to_string(bounds).map_err(|e| e.to_string())?)?;
    let declared = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    let mut agree = true;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for workload in crate::metrics::WORKLOADS {
        let (Some(ra), Some(rb)) = (untraced(&a, workload), untraced(&b, workload)) else {
            return Err(format!("both sets need an untraced {workload} result"));
        };
        for r in [ra, rb] {
            if r.get("failed").and_then(Json::as_f64) != Some(0.0) {
                println!("{workload}: a run reported failed operations");
                agree = false;
            }
        }
        for m in declared {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let (Some(va), Some(vb)) = (metric(ra, name), metric(rb, name)) else {
                return Err(format!("{workload}: metric {name} missing from a result"));
            };
            let worse = worsening(va, vb, better);
            let exact = EXACT_METERS.contains(&name) && SINGLE_THREADED.contains(&workload);
            let ok = if exact {
                va == vb
            } else {
                within(va, vb, better, bound)
            };
            agree &= ok;
            println!(
                "{workload:<18} {name:<16} {va:>14.6} {vb:>14.6} {:>8.2}% {:>7} {}",
                worse * 100.0,
                if exact {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", bound * 100.0)
                },
                if ok { "" } else { "DISAGREE" }
            );
        }
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!(worsening(100.0, 120.0, "higher") < 0.0);
    }

    #[test]
    fn agreement_is_two_sided() {
        assert!(within(100.0, 109.0, "lower", 0.10));
        assert!(!within(100.0, 111.0, "lower", 0.10));
        // The same code running 40 % faster the second time is disagreement
        // too, whichever direction counts as better.
        assert!(!within(100.0, 60.0, "lower", 0.10));
        assert!(!within(100.0, 140.0, "higher", 0.10));
        assert!(within(100.0, 95.0, "higher", 0.10));
    }

    #[test]
    fn finds_the_untraced_result_of_a_workload() {
        let set = vec![
            Json::parse(r#"{"workload": "cold-csv", "trace": 1, "result": {"failed": 0}}"#)
                .unwrap(),
            Json::parse(
                r#"{"workload": "cold-csv", "trace": 0, "result": {"failed": 0,
                    "metrics": {"init_s": {"value": 0.5, "unit": "s"}}}}"#,
            )
            .unwrap(),
        ];
        let r = untraced(&set, "cold-csv").unwrap();
        assert_eq!(metric(r, "init_s"), Some(0.5));
        assert_eq!(metric(r, "ttfa_ms"), None);
        assert!(untraced(&set, "warm-zone").is_none());
    }
}
