//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract and mirror
//! `BENCHMARK.json` (pinned by a test). An untraced run prints every
//! end-to-end metric; a traced run prints every per-layer metric, with
//! 0 for a layer the workload leaves idle.

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mib", "MiB"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("anchor_err_pct", "%"),
    ("holdout_err_pct", "%"),
];

/// Per-layer metrics: (name, unit).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("src.ns_per_cycle", "ns"),
    ("src.offer_accept_frac", "ratio"),
    ("src.horizon_block_frac", "ratio"),
    ("fabric.tick_ns_per_cycle", "ns"),
    ("fabric.handoff_ns_per_cycle", "ns"),
    ("fabric.flits_per_cycle", "1/cycle"),
    ("fabric.max_lateral_util", "ratio"),
    ("fabric.id_stall_per_kcycle", "1/kcycle"),
    ("mc.tick_ns_per_cycle", "ns"),
    ("mc.queue_hwm", "count"),
    ("dram.page_hit_frac", "ratio"),
    ("dram.turnarounds_per_kcycle", "1/kcycle"),
    ("dram.busy_frac", "ratio"),
    ("dram.stall_frac", "ratio"),
    ("step.stepped_frac", "ratio"),
    ("step.ns_per_stepped_cycle", "ns"),
    ("horizon.queries_per_kcycle", "1/kcycle"),
    ("horizon.ns_per_query", "ns"),
    ("farm.busy_frac", "ratio"),
    ("farm.point_ms_p50", "ms"),
    ("farm.point_ms_p90", "ms"),
    ("farm.tail_s", "s"),
    ("batch.lockstep_lanes", "count"),
    ("cache.hit_frac", "ratio"),
    ("cache.coalesced", "count"),
    ("cache.get_us", "us"),
    ("cache.flush_ms", "ms"),
    ("cache.disk_load_ms", "ms"),
    ("cache.warm_grid_ms", "ms"),
    ("analytic.predict_us_per_point", "us"),
    ("adaptive.escalated_frac", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.stream_us_p50", "us"),
    ("serve.worker_util", "ratio"),
    ("serve.rejected", "count"),
    ("wire.client_decode_us_per_row", "us"),
    ("trace.overhead_pct", "%"),
];

/// Metric values a workload produced, by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (must be one of the contract's names).
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Successes and failures of output checks, counted per operation
/// (a grid point, an accelerator run, a served job).
#[derive(Debug, Clone, Default)]
pub struct CheckLog {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl CheckLog {
    /// One operation passed.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One operation failed.
    pub fn fail(&mut self, msg: String) {
        self.fail_n(1, msg);
    }

    /// `n` operations failed for one reason.
    pub fn fail_n(&mut self, n: u64, msg: String) {
        self.attempted += n;
        self.failed += n;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Folds another log in.
    pub fn merge(&mut self, o: CheckLog) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for m in o.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }
}

/// A workload run's checks and metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output checks.
    pub log: CheckLog,
    /// Metric values.
    pub metrics: Metrics,
    /// One line of human-readable context.
    pub notes: String,
}

impl Outcome {
    /// Bundles a run's results.
    pub fn new(log: CheckLog, metrics: Metrics, notes: String) -> Outcome {
        Outcome { log, metrics, notes }
    }

    /// Renders the human-readable report and the final JSON line over
    /// `names`; returns them and whether the run is correct. Per-layer
    /// metrics a workload did not produce read 0 (idle layer); a missing
    /// end-to-end metric is a bug.
    pub fn render(&self, names: &[(&str, &str)], idle_is_zero: bool) -> (String, bool) {
        let mut text = format!("# {}\n", self.notes);
        let mut json = Vec::new();
        let mut finite = true;
        for (name, unit) in names {
            let v = match self.metrics.get(name) {
                Some(v) => v,
                None if idle_is_zero => 0.0,
                None => panic!("workload did not produce end-to-end metric {name}"),
            };
            let v = if v.is_finite() {
                v
            } else {
                finite = false;
                -1.0
            };
            text.push_str(&format!("{name} = {v} {unit}\n"));
            json.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_num(v)));
        }
        for m in &self.log.messages {
            text.push_str(&format!("FAILED: {m}\n"));
        }
        let correct = self.log.failed == 0 && finite && self.log.attempted > 0;
        text.push_str(&format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.log.attempted.max(1),
            self.log.failed,
            json.join(", ")
        ));
        (text, correct)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's names and units, in order, as `BENCHMARK.json`
    /// lists them.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let key = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = text[at..].find(&key).unwrap_or_else(|| panic!("{key} not in order"));
            at += found + key.len();
        }
        assert_eq!(text.matches("\"name\": ").count(), END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5);
        let mut log = CheckLog::default();
        log.ok();
        let out = Outcome::new(log, m, String::new());
        let (text, ok) = out.render(&[("setup_s", "s")], false);
        assert!(ok);
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
