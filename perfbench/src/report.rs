//! Metric names, units, and the result line.

use crate::probe::{VerifyProbe, PHASES};
use crate::procfs::ThreadTimes;
use crate::stats::{percentile, ratio, windowed, windowed_rate};
use std::collections::BTreeMap;

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run prints, with their units. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("parse.tech_us", "us"),
    ("parse.spec_us", "us"),
    ("synth.call_ms_p50", "ms"),
    ("synth.call_ms_p90", "ms"),
    ("synth.infeasible_frac", "ratio"),
    ("synth.pruned_frac", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("explore.repeat_frac", "ratio"),
    ("verify.call_ms_p50", "ms"),
    ("verify.call_ms_p90", "ms"),
    ("sim.erc_ms", "ms"),
    ("sim.offset_ms", "ms"),
    ("sim.dc_ms", "ms"),
    ("sim.ac_ms", "ms"),
    ("sim.swing_ms", "ms"),
    ("sim.slew_ms", "ms"),
    ("sim.cmrr_ms", "ms"),
    ("sim.noise_ms", "ms"),
    ("sim.psrr_ms", "ms"),
    ("verify.coverage", "ratio"),
    ("sim.dc.newton_iterations", "count"),
    ("sim.tran.steps", "count"),
    ("sim.ac.points", "count"),
    ("sim.mismatch_ratio", "ratio"),
    ("pool.busy_frac", "ratio"),
    ("pool.runq_wait_ms", "ms"),
    ("dataset.plan_expand_ms", "ms"),
    ("dataset.sink_us_per_record", "us"),
    ("dataset.merge_ms", "ms"),
    ("dataset.cache_hit_ratio", "ratio"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.ping_ms_p90", "ms"),
    ("serve.shed", "count"),
    ("serve.degraded_served", "count"),
    ("serve.brownout_entries", "count"),
    ("serve.evicted", "count"),
    ("loadgen.late_ms_p90", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, syntheses, records, answers).
    pub attempted: u64,
    /// Operations that failed: errors, timeouts, shed or degraded
    /// answers, output mismatches.
    pub failed: u64,
    /// Why the run is invalid (failed checks, broken preconditions).
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// An empty report for a traced (`true`) or untraced run. A traced
    /// report starts with every per-layer metric at 0.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        let mut report = Self::default();
        if traced {
            for (name, _) in PER_LAYER {
                report.metrics.insert(name, (0.0, 0));
            }
        }
        report
    }

    /// Sets a metric measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    /// Sets the per-layer median and 90th percentile of `samples` under
    /// `p50` and `p90`; a percentile with fewer than ten samples beyond it
    /// reads 0.
    pub fn set_percentiles(&mut self, p50: &'static str, p90: &'static str, samples: &[f64]) {
        for (name, q) in [(p50, 0.5), (p90, 0.9)] {
            self.set(name, percentile(samples, q).unwrap_or(0.0), samples.len());
        }
    }

    /// Sets the end-to-end latency percentiles and throughput of a
    /// closed loop as medians over windows of `window` requests, so a
    /// slow burst of the host that covers a minority of the run does not
    /// move them. `latencies_ms` and `done_s` (completion times) are in
    /// completion order.
    pub fn set_windowed(&mut self, latencies_ms: &[f64], done_s: &[f64], window: usize) {
        let n = latencies_ms.len();
        for (name, q) in [("latency_ms_p50", 0.5), ("latency_ms_p90", 0.9)] {
            match windowed(latencies_ms, window, |w| percentile(w, q)) {
                Some(v) => self.set(name, v, n),
                None => self.problems.push(format!(
                    "{name}: {n} samples fill no {window}-sample window"
                )),
            }
        }
        match windowed_rate(done_s, window) {
            Some(v) => self.set("throughput_per_s", v, n),
            None => self
                .problems
                .push(format!("throughput: {n} completions fill no window")),
        }
    }

    /// Sets `pool.busy_frac` and `pool.runq_wait_ms` from a sampling window
    /// of `wall` seconds over `ops` operations.
    pub fn set_pool(&mut self, t: ThreadTimes, workers: usize, wall: f64, ops: usize) {
        self.set(
            "pool.busy_frac",
            ratio(t.cpu_ns as f64 / 1e9, workers as f64 * wall),
            ops,
        );
        self.set(
            "pool.runq_wait_ms",
            ratio(t.wait_ns as f64 / 1e6, ops as f64),
            ops,
        );
    }

    /// Sets the verification-layer metrics from per-design probes.
    pub fn set_verify_probes(&mut self, probes: &[VerifyProbe]) {
        let n = probes.len();
        if n == 0 {
            return;
        }
        let mut phase_total = 0.0;
        for (slot, name) in PHASES.iter().enumerate() {
            let sum: f64 = probes.iter().map(|p| p.phases[slot]).sum();
            phase_total += sum;
            self.set(name, sum / n as f64, n);
        }
        let verify_total: f64 = probes.iter().map(|p| p.verify_ms).sum();
        let mismatch_total: f64 = probes.iter().map(|p| p.mismatch_ms).sum();
        self.set("verify.coverage", ratio(phase_total, verify_total), n);
        self.set("sim.mismatch_ratio", ratio(mismatch_total, phase_total), n);
        let mean = |f: fn(&VerifyProbe) -> u64| probes.iter().map(f).sum::<u64>() as f64 / n as f64;
        self.set("sim.dc.newton_iterations", mean(|p| p.newton_iterations), n);
        self.set("sim.tran.steps", mean(|p| p.tran_steps), n);
        self.set("sim.ac.points", mean(|p| p.ac_points), n);
    }

    /// Records a failed operation with its reason (the first few
    /// reasons are kept).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Human-readable lines, one per metric, with sample counts.
    #[must_use]
    pub fn describe(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue
            .iter()
            .filter_map(|(name, unit)| {
                let (value, n) = self.metrics.get(name)?;
                Some(format!("{name:<28} {value:>14.6} {unit:<6} (n={n})"))
            })
            .collect()
    }

    /// The result line: the run is correct when nothing failed, every
    /// check passed, and every metric of `catalogue` was measured.
    #[must_use]
    pub fn json(&self, catalogue: &[(&str, &str)]) -> (bool, String) {
        let mut correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            match self.metrics.get(name) {
                Some((value, _)) if value.is_finite() => {
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    ));
                }
                _ => correct = false,
            }
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        (correct, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory copied on its own
        };
        let json = oasys_telemetry::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(oasys_telemetry::json::Json::Arr(list)) = json.get(key) else {
                panic!("{key} is not a list");
            };
            list.iter()
                .map(|m| {
                    let field = |k| {
                        m.get(k)
                            .and_then(oasys_telemetry::json::Json::as_str)
                            .unwrap()
                    };
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn missing_metrics_make_a_run_incorrect() {
        let mut report = Report::new(false);
        report.attempted = 3;
        for (name, _) in END_TO_END {
            report.set(name, 1.0, 3);
        }
        assert!(report.json(&END_TO_END).0);
        let mut partial = Report::new(false);
        partial.attempted = 3;
        partial.set("setup_s", 1.0, 3);
        let (correct, line) = partial.json(&END_TO_END);
        assert!(!correct);
        assert!(line.starts_with("{\"correct\": false"));
        let mut failing = Report::new(true);
        failing.attempted = 1;
        failing.fail("mismatch");
        assert!(!failing.json(&PER_LAYER).0);
    }
}
