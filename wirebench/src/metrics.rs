//! Metric names, statistics, and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("explain_p50_ms", "ms"),
    ("explain_p90_ms", "ms"),
    ("explains_per_s", "1/s"),
    ("first_insight_p50_ms", "ms"),
    ("register_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.json.parse_ms", "ms"),
    ("frame.register_ms", "ms"),
    ("frame.encode_ms", "ms"),
    ("core.score_ms", "ms"),
    ("core.partition_ms", "ms"),
    ("core.contribute_ms", "ms"),
    ("core.skyline_ms", "ms"),
    ("core.present_ms", "ms"),
    ("query.parse_ms", "ms"),
    ("query.execute_ms", "ms"),
    ("core.render_ms", "ms"),
    ("serve.json.serialize_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.sched_ms", "ms"),
    ("serve.io_ms", "ms"),
    ("obs.scrape_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("wire_ms", "ms"),
    ("core.partitions", "count"),
    ("core.candidates", "count"),
    ("core.explanations", "count"),
    ("serve.response_kb", "KiB"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.mb", "MiB"),
    ("sched.coalesced", "count"),
    ("trace_overhead_pct", "%"),
];

/// Whether a metric name uses only the characters results may carry.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        len => {
            let pos = q * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The benchmark's last line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let unit = unit_of(name).unwrap_or("?");
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
