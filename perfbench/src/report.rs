//! The declared metric set, output-check bookkeeping, and the result
//! line. The names and units here must match `BENCHMARK.json`; the
//! self-test enforces that.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("rec_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.decode_s", "s"),
    ("trace.decode_rec_per_s", "1/s"),
    ("trace.passes", "count"),
    ("trace.profile_s", "s"),
    ("predictors.train_s", "s"),
    ("predictors.ns_per_branch_lane", "ns"),
    ("pipeline.prepare_s", "s"),
    ("pipeline.replay_s", "s"),
    ("pipeline.sim_rec_per_s", "1/s"),
    ("pipeline.lane1_rec_per_s", "1/s"),
    ("pipeline.coverage", "ratio"),
    ("mpki_err_pct", "%"),
    ("ipc_err_pct", "%"),
    ("analysis.cluster_s", "s"),
    ("analysis.segments", "count"),
    ("serve.handle_p50_ms", "ms"),
    ("serve.handle_p99_ms", "ms"),
    ("serve.http_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_disk_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.exec", "count"),
    ("serve.dedup_join", "count"),
    ("serve.cache.store", "count"),
    ("serve.cache.disk_hit", "count"),
    ("unaccounted_s", "s"),
    ("accounted_pct", "%"),
    ("tracing_overhead_pct", "%"),
];

/// Output checks against pinned values: every comparison is one
/// attempted op, every mismatch one failed op.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: exactly the declared metrics of the run's kind, in
/// declaration order.
pub fn result_line(check: &Check, traced: bool, values: &Values) -> Result<String, String> {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && check.attempted > 0,
        check.attempted,
        check.failed,
        metrics.join(", ")
    ))
}
