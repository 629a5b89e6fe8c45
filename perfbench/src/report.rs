//! What a run measured, and the one-line JSON result.

use std::fmt::Write;

use crate::check::Checks;
use crate::trace;

/// Values measured end to end that per-layer metrics are derived from.
#[derive(Default)]
pub struct Scratch {
    /// Closed-loop median request latency (µs).
    pub req_p50_us: f64,
    /// Routed closed-loop median request latency (µs).
    pub routed_p50_us: f64,
    /// p99 of how late the open-loop generator sent (µs).
    pub open_late_us: f64,
    /// Read replies slower than one reactor poll tick.
    pub tick_stalls: u64,
}

/// Metrics, operation counts and checks of one run.
#[derive(Default)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// Inputs to derived per-layer metrics.
    pub scratch: Scratch,
    e2e: Vec<(&'static str, f64, &'static str)>,
    layer: Vec<(&'static str, f64, &'static str)>,
    info: Vec<(&'static str, f64, &'static str)>,
    phases: Vec<(&'static str, u64, u64)>,
}

impl Report {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.push((name, value, unit));
    }

    /// Record a figure that is printed in the table but is no metric.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push((name, value, unit));
    }

    /// Add to a phase's attempted and failed operations.
    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.0 == name) {
            Some(p) => {
                p.1 += attempted;
                p.2 += failed;
            }
            None => self.phases.push((name, attempted, failed)),
        }
    }

    /// Derive the span-based and difference-based per-layer metrics.
    pub fn derive_layers(&mut self, frame_pairs: usize) {
        let selfs = trace::self_times(&trace::spans());
        let s = |name: &str| trace::median_self_s(&selfs, name).unwrap_or(f64::NAN);
        let mean_s = |name: &str| {
            let ns: Vec<f64> =
                selfs.get(name).map(|v| v.iter().map(|&x| x as f64).collect()).unwrap_or_default();
            crate::stats::mean(&ns).map_or(f64::NAN, |m| m / 1e9)
        };
        let pairs = frame_pairs as f64;
        let frame_query_us = s("hoplabels.query_many") * 1e6;
        let derived = [
            ("sfgraph.rank_s", s("sfgraph.rank"), "s"),
            ("hoplabels.serialize_s", s("hoplabels.serialize"), "s"),
            ("hoplabels.load_s", s("hoplabels.load"), "s"),
            ("hoplabels.batch_ns", s("hoplabels.query_many") * 1e9 / pairs, "ns/pair"),
            (
                "hoplabels.overlay_query_ns",
                mean_s("hoplabels.overlay_query") * 1e9 / pairs,
                "ns/pair",
            ),
            ("hoplabels.overlay_rebuild_us", mean_s("hoplabels.overlay_rebuild") * 1e6, "us"),
            ("hoplabels.shard_s", s("hoplabels.shard"), "s"),
            ("server.boot_s", s("server.boot"), "s"),
            ("server.proto_ns", s("server.proto") * 1e9, "ns"),
            ("server.req_overhead_us", self.scratch.req_p50_us - frame_query_us, "us"),
            ("server.tick_stalls", self.scratch.tick_stalls as f64, "count"),
            ("server.open_late_us", self.scratch.open_late_us, "us"),
            ("wal.append_us", s("wal.append") * 1e6, "us"),
            ("wal.replay_s", s("wal.replay"), "s"),
            ("router.added_us", self.scratch.routed_p50_us - self.scratch.req_p50_us, "us"),
        ];
        self.layer.extend(derived);
    }

    /// Operations attempted over every phase.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum()
    }

    /// Operations failed over every phase.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.2).sum()
    }

    /// A human-readable table of every phase and metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, attempted, failed) in &self.phases {
            let _ = writeln!(out, "  phase {name:<14} attempted {attempted:>8}  failed {failed}");
        }
        for (name, value, unit) in self.e2e.iter().chain(&self.layer) {
            let _ = writeln!(out, "  {name:<30} {value:>16.4} {unit}");
        }
        for (name, value, unit) in &self.info {
            let _ = writeln!(out, "  (not a metric) {name:<15} {value:>16.4} {unit}");
        }
        out
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// `layers`. A metric that could not be measured makes the run
    /// incorrect.
    pub fn json(&self, layers: bool) -> String {
        let metrics = if layers { &self.layer } else { &self.e2e };
        let mut correct = self.checks.all_passed();
        let mut body = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                correct = false;
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(body, r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#);
        }
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{body}}}}}"#,
            self.attempted().max(1),
            self.failed()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_keys_and_sums_phases() {
        let mut r = Report::default();
        r.phase("a", 10, 1);
        r.phase("b", 2, 0);
        r.phase("b", 3, 0);
        r.e2e("latency_ms", 1.25, "ms");
        r.layer("cache_hits", 3.0, "count");
        assert_eq!(
            r.json(false),
            r#"{"correct": true, "attempted": 15, "failed": 1, "metrics": {"latency_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert!(r.json(true).contains(r#""cache_hits": {"value": 3, "unit": "count"}"#));
    }

    #[test]
    fn an_unmeasured_metric_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.phase("a", 1, 0);
        r.e2e("x", f64::NAN, "s");
        assert!(r.json(false).starts_with(r#"{"correct": false"#));
    }
}
