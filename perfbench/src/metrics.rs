//! The metric catalog (mirrored by `BENCHMARK.json`), percentiles, and
//! the result line.

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change is rejected.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the daemon sees; printed by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_ni_p50_us", "us", "lower", 0.25),
    e2e("query_ni_p90_us", "us", "lower", 0.25),
    e2e("query_ip_p50_us", "us", "lower", 0.25),
    e2e("query_ip_p90_us", "us", "lower", 0.25),
    e2e("query_multi_p50_us", "us", "lower", 0.25),
    e2e("query_multi_p90_us", "us", "lower", 0.25),
    e2e("queries_per_s", "1/s", "higher", 0.25),
    e2e("ingest_run_p50_ms", "ms", "lower", 0.25),
    e2e("ingest_run_p90_ms", "ms", "lower", 0.25),
    e2e("ingest_records_per_s", "1/s", "higher", 0.25),
    e2e("wal_bytes_per_record", "bytes", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Single layers; printed by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    layer("engine.run_self_ms", "ms", "lower"),
    layer("serve.connect_us", "us", "lower"),
    layer("serve.sink_batch_us", "us", "lower"),
    layer("serve.finish_ms", "ms", "lower"),
    layer("serve.backpressure_waits", "count", "lower"),
    layer("serve.ingest_batches", "count", "higher"),
    layer("serve.request_timeouts", "count", "lower"),
    layer("serve.conns_refused", "count", "lower"),
    layer("wire.decode_us_per_frame", "us", "lower"),
    layer("wire.encode_us_per_frame", "us", "lower"),
    layer("wire.frame_kib", "KiB", "lower"),
    layer("store.open_s", "s", "lower"),
    layer("store.record_batch_us_per_event", "us", "lower"),
    layer("wal.sync_p50_us", "us", "lower"),
    layer("wal.records_per_sync", "count", "higher"),
    layer("store.records_read_per_query.ni", "count", "lower"),
    layer("store.records_read_per_query.ip", "count", "lower"),
    layer("store.records_read_per_query.multi", "count", "lower"),
    layer("store.index_lookups_per_query.ni", "count", "lower"),
    layer("store.index_lookups_per_query.ip", "count", "lower"),
    layer("store.index_lookups_per_query.multi", "count", "lower"),
    layer("dataflow.load_us", "us", "lower"),
    layer("core.parse_us", "us", "lower"),
    layer("core.plan_us", "us", "lower"),
    layer("core.execute_us.ni", "us", "lower"),
    layer("core.execute_us.ip", "us", "lower"),
    layer("core.execute_us.multi", "us", "lower"),
    layer("core.render_us", "us", "lower"),
    layer("serve.residual_us.ni", "us", "lower"),
    layer("serve.residual_us.ip", "us", "lower"),
    layer("serve.residual_us.multi", "us", "lower"),
    layer("obs.journal_events_per_op", "count", "lower"),
    layer("obs.journal_dropped", "count", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("failed_frac", "ratio", "lower"),
];

/// The `q`-quantile (`0 <= q <= 1`) of `xs`, interpolated linearly
/// between the two nearest order statistics (so a small sample's median
/// is the mean of its middle two); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Metric values by name, in catalog order once rendered.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` (replacing any earlier value).
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, v));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every entry of `defs`. A metric with no
/// finite value is an error.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut parts = Vec::new();
    for def in defs {
        let v =
            values.get(def.name).ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not a finite number: {v}", def.name));
        }
        parts.push(format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", def.name, def.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
