//! The metric registry and the result line every run prints last.

use std::fmt::Write as _;

/// End-to-end metrics (reported with `--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("machines_per_s", "1/s"),
    ("transitions_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("state_vars", "count"),
    ("gate_cubes", "count"),
    ("depth_total", "count"),
];

/// Per-layer metrics (reported with `--trace 1`), with their units. A layer
/// a workload never calls reports 0: the workload spends no time there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flow.validate.ms", "ms"),
    ("minimize.reduce.ms", "ms"),
    ("minimize.reduce.accept_ratio", "ratio"),
    ("minimize.states_out", "count"),
    ("assign.ms", "ms"),
    ("assign.dichotomies", "count"),
    ("spec.ms", "ms"),
    ("outputs.ms", "ms"),
    ("outputs.z_cubes", "count"),
    ("hazard.ms", "ms"),
    ("hazard.states", "count"),
    ("fsv.ms", "ms"),
    ("fsv.p90_ms", "ms"),
    ("fsv.max_ms", "ms"),
    ("fsv.y_on_cubes", "count"),
    ("fsv.y_cubes", "count"),
    ("factoring.ms", "ms"),
    ("factoring.cubes", "count"),
    ("depth.ms", "ms"),
    ("flow.canonicalize.ms", "ms"),
    ("flow.canonical.exact_ratio", "ratio"),
    ("service.miss_synth.ms", "ms"),
    ("service.self.ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.pool.speedup", "ratio"),
    ("emit.ms", "ms"),
    ("emit.gates", "count"),
    ("campaign.ms", "ms"),
    ("campaign.oracle.ms", "ms"),
    ("campaign.protected_ratio", "ratio"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("campaign.pool.speedup", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Record one checked request; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// The result line: every metric of `registry`, absent ones as 0.
    /// Panics if the workload set a metric the registry does not list.
    pub fn json_line(&self, registry: &[(&str, &str)]) -> String {
        for (name, _) in &self.metrics {
            assert!(
                registry.iter().any(|(n, _)| n == name),
                "metric {name} is not registered"
            );
        }
        let correct = self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The process's resident-set high-water mark in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_registered_metric() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.set("latency_p50_ms", 1.25);
        let line = r.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.25,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0,"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "boom".to_string());
        assert!(r
            .json_line(END_TO_END)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
