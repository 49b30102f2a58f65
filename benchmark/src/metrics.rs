//! The metric names this binary emits. `BENCHMARK.json` declares the same
//! sets (a unit test compares them); later performance claims cite these
//! names, so they are fixed here.

use std::collections::BTreeMap;

use crate::json::Json;

/// Workload names, in run order.
pub const WORKLOADS: [&str; 4] = ["cold-csv", "warm-zone", "remote-reexplore", "serve-ingest"];

/// End-to-end metrics `(name, unit)`: what an analyst would see. Every
/// workload reports every one, and none can be 0.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("init_s", "s"),
    ("ttfa_ms", "ms"),
    ("early_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("session_qps", "1/s"),
    ("bytes_read_mb", "MB"),
    ("index_mem_mb", "MB"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, traced run only. A metric whose layer
/// a workload bypasses reports 0 there.
pub const PER_LAYER: [(&str, &str); 73] = [
    // storage: probes
    ("storage.scan_mb_per_s", "MB/s"),
    ("storage.scan_ns_per_row", "ns"),
    ("storage.read_rows_ns_per_obj", "ns"),
    ("storage.read_rows_us_per_call", "us"),
    ("storage.window_scan_ms", "ms"),
    ("storage.blocks_skipped_frac", "ratio"),
    // storage: logical I/O counters of one pass
    ("storage.objects_read", "count"),
    ("storage.bytes_read", "count"),
    ("storage.read_calls", "count"),
    ("storage.seeks", "count"),
    ("storage.blocks_read", "count"),
    ("storage.blocks_skipped", "count"),
    // storage: remote transport
    ("storage.http_gets", "count"),
    ("storage.http_mb", "MB"),
    ("storage.retries", "count"),
    ("storage.fetch_wall_ms", "ms"),
    ("storage.fetch_request_ms", "ms"),
    ("storage.overlap_ratio", "ratio"),
    ("storage.fetch_p50_us", "us"),
    ("storage.fetch_p99_us", "us"),
    // storage: cache tiers
    ("storage.cache_hit_frac", "ratio"),
    ("storage.cache_evictions", "count"),
    ("storage.cache_spill_mb", "MB"),
    ("storage.cache_hit_frac_s1", "ratio"),
    ("storage.cache_hit_frac_s2", "ratio"),
    ("storage.cache_hit_frac_s3", "ratio"),
    ("storage.http_gets_s1", "count"),
    ("storage.http_gets_s2", "count"),
    ("storage.http_gets_s3", "count"),
    // storage: append / seal / compact
    ("storage.append_us_per_krow", "us"),
    ("storage.compact_ms", "ms"),
    ("storage.delta_blocks", "count"),
    ("storage.blocks_rewritten", "count"),
    ("storage.cache_invalidations", "count"),
    // index
    ("index.build_ns_per_row", "ns"),
    ("index.build_self_ms", "ms"),
    ("index.classify_cold_us", "us"),
    ("index.classify_warm_us", "us"),
    ("index.leaf_count", "count"),
    ("index.splits", "count"),
    ("index.mem_bytes_per_obj", "B"),
    ("index.tiles_full", "count"),
    ("index.tiles_partial", "count"),
    ("index.tiles_processed", "count"),
    ("index.tiles_split", "count"),
    ("index.tiles_enriched", "count"),
    // core
    ("core.evaluate_us_p50", "us"),
    ("core.evaluate_us_p99", "us"),
    ("core.estimate_us_p50", "us"),
    ("core.ci_us_p50", "us"),
    ("core.adapt_us_p50", "us"),
    ("core.adapt_share", "ratio"),
    ("core.meta_only_frac", "ratio"),
    ("core.synopsis_hit_frac", "ratio"),
    ("core.bound_slack_p50", "ratio"),
    ("core.predict_us", "us"),
    ("core.predict_ratio_p50", "ratio"),
    ("core.ingest_us_per_krow", "us"),
    // query runner
    ("query.runner_overhead_frac", "ratio"),
    // server
    ("server.rtt_us_p50", "us"),
    ("server.rtt_us_p99", "us"),
    ("server.service_us_p50", "us"),
    ("server.overhead_us_p50", "us"),
    ("server.overhead_us_p99", "us"),
    ("server.queries_served", "count"),
    ("server.ingests_applied", "count"),
    ("server.busy", "count"),
    ("server.errors", "count"),
    ("server.dropped_replies", "count"),
    ("server.service_hist_p99_us", "us"),
    ("server.ingest_krows_per_s", "krow/s"),
    // the harness itself
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Values for one declared metric set; setting an undeclared name is a bug
/// in the benchmark and panics.
#[derive(Debug, Clone)]
pub struct MetricSet {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// Every declared metric, at 0.
    pub fn zeroed(declared: &'static [(&'static str, &'static str)]) -> MetricSet {
        MetricSet {
            declared,
            values: declared.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric '{name}' is not declared in metrics.rs"),
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(name, unit, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.declared.iter().map(|&(n, u)| (n, u, self.values[n]))
    }

    /// First metric that is not a finite number, if any.
    pub fn first_non_finite(&self) -> Option<&'static str> {
        self.iter().find(|(_, _, v)| !v.is_finite()).map(|m| m.0)
    }

    /// `{"name": {"value": v, "unit": "u"}, …}`.
    pub fn to_json(&self) -> Json {
        Json::obj(self.iter().map(|(n, u, v)| {
            (
                n,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(u))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    /// The set of workload and metric names the binary emits equals the set
    /// `BENCHMARK.json` declares, and every name fits the contract.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let why = w.get("why").and_then(Json::as_str).unwrap();
                assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
                assert_eq!(w.as_object().unwrap().len(), 2);
                w.get("name").and_then(Json::as_str).unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let pairs = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), pairs(&PER_LAYER));

        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .chain(END_TO_END.iter().map(|m| &m.0))
            .chain(PER_LAYER.iter().map(|m| &m.0))
        {
            assert!(name_ok(name, 64), "bad name '{name}'");
            assert!(seen.insert(*name), "name '{name}' is used twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit_ok(unit), "bad unit '{unit}'");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);

        for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            let better = m.get("better").and_then(Json::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
            assert_eq!(m.as_object().unwrap().len(), 4);
        }
        for m in doc.get("per_layer").and_then(Json::as_array).unwrap() {
            assert_eq!(
                m.as_object().unwrap().len(),
                3,
                "per-layer metrics have no bound"
            );
        }
        let setup = doc.get("end_to_end").and_then(Json::as_array).unwrap()[0].clone();
        assert_eq!(setup.get("name").and_then(Json::as_str), Some("setup_s"));
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));

        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        for p in doc.get("paths").and_then(Json::as_array).unwrap() {
            assert!(name_ok(&p.as_str().unwrap().replace('/', "_"), 200));
        }
    }

    #[test]
    fn metric_set_round_trips_and_rejects_unknown_names() {
        let mut m = MetricSet::zeroed(&END_TO_END);
        m.set("init_s", 0.25);
        assert_eq!(m.get("init_s"), 0.25);
        assert_eq!(m.iter().count(), END_TO_END.len());
        let json = m.to_json();
        assert_eq!(
            json.get("init_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        m.set("ttfa_ms", f64::NAN);
        assert_eq!(m.first_non_finite(), Some("ttfa_ms"));
        assert!(std::panic::catch_unwind(move || m.set("nope", 1.0)).is_err());
    }
}
