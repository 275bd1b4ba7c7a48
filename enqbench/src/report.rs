//! Metric names, units and the result line.
//!
//! The two tables below are the benchmark's metric set; a unit test keeps
//! them equal to the lists in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, printed by every run with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("success_share", "ratio"),
    ("mean_fidelity", "ratio"),
    ("fit_s", "s"),
    ("eval_samples_per_s", "1/s"),
    ("depth_reduction", "ratio"),
    ("twoq_reduction", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A metric of a layer the
/// workload does not exercise reads 0. The first four are end-to-end
/// figures of the serving path without a bound: on a host whose CPU is
/// shared with other guests they follow the host's contention more than the
/// program.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p50_us", "us"),
    ("cpu_us_per_request", "us"),
    ("latency_p99_us", "us"),
    ("throughput_rps", "1/s"),
    ("error_share", "ratio"),
    ("leaked_files", "count"),
    ("unattributed_us.p50", "us"),
    ("trace.overhead_us", "us"),
    ("trace.overhead_share", "ratio"),
    ("net.self_us.p50", "us"),
    ("net.codec_us.p50", "us"),
    ("net.served", "count"),
    ("net.shed", "count"),
    ("net.rate_limited", "count"),
    ("net.hostile_closes", "count"),
    ("serve.self_us.p50", "us"),
    ("serve.self_us.p99", "us"),
    ("serve.hit_us.p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.hit_share", "ratio"),
    ("serve.memo_hits", "count"),
    ("serve.cache_hits", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.cache_insertions", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.errors", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.pool_created", "count"),
    ("traffic.recorded", "count"),
    ("traffic.shards", "count"),
    ("traffic.dropped", "count"),
    ("traffic.spill_failures", "count"),
    ("traffic.record_us.p99", "us"),
    ("data.pca_us.p50", "us"),
    ("data.features_s", "s"),
    ("data.clustering_s", "s"),
    ("data.source_passes", "count"),
    ("core.embed_us.p50", "us"),
    ("core.nearest_us.p50", "us"),
    ("core.kernel_us", "us"),
    ("core.audit_s", "s"),
    ("core.training_s", "s"),
    ("core.clusters", "count"),
    ("core.cluster_fidelity.mean", "ratio"),
    ("optim.online_iters.mean", "count"),
    ("optim.offline_iters.mean", "count"),
    ("store.write_ms", "ms"),
    ("store.read_ms", "ms"),
    ("store.bytes", "bytes"),
    ("stateprep.synth_us.p50", "us"),
    ("circuit.transpile_us.p50.baseline", "us"),
    ("circuit.transpile_us.p50.enqode", "us"),
    ("circuit.depth.baseline", "count"),
    ("circuit.depth.enqode", "count"),
    ("circuit.depth_stddev.enqode", "count"),
    ("circuit.swaps.baseline", "count"),
    ("qsim.ideal_us.p50", "us"),
    ("qsim.noisy_us.p50.baseline", "us"),
    ("qsim.noisy_us.p50.enqode", "us"),
    ("qsim.noisy_bytes", "bytes"),
    ("qsim.noisy_fidelity.baseline", "ratio"),
    ("qsim.noisy_fidelity.enqode", "ratio"),
    ("noisy_fidelity_gain", "ratio"),
];

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics for a name in neither table: that is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The run's outcome: counts plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, samples and output checks).
    pub attempted: u64,
    /// Attempted operations that failed, were refused or failed a check.
    pub failed: u64,
    /// Output checks run.
    pub checks: u64,
    /// Metric values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.count(ok);
    }

    /// Failed share of attempted operations.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: every end-to-end metric (`traced == false`) or every
    /// per-layer metric, per-layer ones defaulting to 0.
    ///
    /// # Errors
    ///
    /// A missing end-to-end metric or a non-finite value.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("metric name {name:?} is outside [A-Za-z0-9_.-]"));
            }
            let value = match self.metrics.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.checks > 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("net.self_us.p50"));
        assert!(valid_name("circuit.depth_stddev.enqode"));
        assert!(valid_name("0-x_y.z"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("_leading_underscore"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/inside"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    /// The `"name"` values of one array of `BENCHMARK.json`, in order.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_shape() {
        let mut out = Outcome::default();
        out.check(true);
        out.count(false);
        for (name, _) in END_TO_END {
            out.metrics.set(name, 1.5);
        }
        let line = out.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = out.result_line(true).unwrap();
        assert!(traced.contains("\"net.shed\": {\"value\": 0.0, \"unit\": \"count\"}"));
        out.metrics.set("fit_s", f64::NAN);
        assert!(out.result_line(false).is_err());
        assert_eq!(out.error_share(), 0.5);
    }
}
