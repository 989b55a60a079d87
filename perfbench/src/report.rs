//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! self-tests keep the two in step.

/// Workloads the runner has; `BENCHMARK.json` gates `mem-hit` and
/// `lsm-mixed` (see `README.md` for why not `mem-miss`).
pub const WORKLOADS: [&str; 3] = ["mem-hit", "mem-miss", "lsm-mixed"];

/// How long one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`, which the bounds were set at.
pub const RUN_SECONDS: u32 = 30;

/// End-to-end metrics (untraced runs): every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] =
    [("setup_s", "s"), ("qps", "1/s"), ("p50_us", "us"), ("p90_us", "us"), ("rss_mib", "MiB")];

/// Per-layer metrics (traced runs). A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("engine.floor_p50_us", "us"),
    ("engine.floor_p99_us", "us"),
    ("engine.index_share", "frac"),
    ("engine.batch_mean", "count"),
    ("engine.batches", "count"),
    ("engine.layer_coverage_frac", "frac"),
    ("search.locate_p50_us", "us"),
    ("search.locate_ns_per_symbol", "ns/symbol"),
    ("search.nodes_checked_per_query", "count"),
    ("search.links_followed_per_query", "count"),
    ("search.extribs_scanned_per_query", "count"),
    ("occurrences.enum_p50_us", "us"),
    ("occurrences.enum_p99_us", "us"),
    ("occurrences.occ_per_query", "count"),
    ("occurrences.ns_per_occurrence", "ns"),
    ("occurrences.index_share", "frac"),
    ("build.ns_per_symbol", "ns/symbol"),
    ("build.mem_bytes_per_symbol", "B/symbol"),
    ("segments.add_p99_us", "us"),
    ("segments.retire_p99_us", "us"),
    ("segments.seal_ms_mean", "ms"),
    ("segments.merge_ms_mean", "ms"),
    ("segments.seals", "count"),
    ("segments.merges", "count"),
    ("segments.commits", "count"),
    ("segments.write_amp", "ratio"),
    ("segments.read_p99_during_merge_us", "us"),
    ("segments.fanout_mean", "count"),
    ("segments.write_p50_us", "us"),
    ("segments.write_p90_us", "us"),
    ("segments.stored_bytes_per_symbol", "B/symbol"),
    ("pagestore.io_ops_per_read", "count"),
    ("pagestore.fetches_per_read", "count"),
    ("pagestore.hit_rate", "frac"),
    ("driver.dispatch_lag_p99_us", "us"),
    ("driver.writer_lag_p99_us", "us"),
    ("driver.trace_overhead_frac", "frac"),
];

/// Printed on the human-readable lines only. `failed_frac` travels as the
/// result line's `failed`/`attempted`. `p99_us` is not steady enough to
/// gate: host scheduling hiccups move it between runs, and a window of
/// `lsm-mixed` holds too few reads for a p99. The open-loop figures exist
/// only on `mem-hit`, the write-path figures only on `lsm-mixed` (traced
/// runs report them as `segments.*`).
pub const HUMAN_ONLY: [(&str, &str); 7] = [
    ("failed_frac", "frac"),
    ("p99_us", "us"),
    ("open_p50_us", "us"),
    ("open_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("stored_bytes_per_symbol", "B/symbol"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Take over every value and check `other` recorded.
    pub fn merge(&mut self, other: Report) {
        for (name, v) in other.values {
            self.set(&name, v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Record one answer check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Every recorded value as a `name = value unit` line, for people.
    pub fn human_lines(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(n, v)| {
                let unit = END_TO_END
                    .iter()
                    .chain(&PER_LAYER)
                    .chain(&HUMAN_ONLY)
                    .find(|(m, _)| m == n)
                    .map_or("", |m| m.1);
                format!("{n} = {v} {unit}")
            })
            .collect()
    }

    /// The result line: the listed metrics (missing ones are a bug in the
    /// runner, so they panic), with the run's check totals.
    pub fn json(&self, metrics: &[(&str, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}
