//! `wirebench summarize`: quartiles of saved results across runs, next
//! to each metric's bound, so a reader sees at a glance whether the
//! figures are steady enough to gate on.
//!
//! ```text
//! wirebench summarize [--bounds BENCHMARK.json] wirebench/results/*.json
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fedex_serve::json::{self, Json};

use crate::metrics::quartiles;

/// Run the subcommand; returns the report text.
pub fn main(args: &[String]) -> Result<String, String> {
    let mut bounds_path = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = Some(it.next().ok_or("--bounds needs a path")?.clone());
        } else {
            files.push(a.clone());
        }
    }
    if files.is_empty() {
        return Err("no result files given".into());
    }
    let bounds = match bounds_path {
        Some(p) => read_bounds(&p)?,
        None => BTreeMap::new(),
    };
    // (workload, trace) → metric → values, in file order.
    let mut groups: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let doc = json::parse(text.trim()).map_err(|e| format!("{f}: {e}"))?;
        let ctx = doc.get("context").ok_or(format!("{f}: no context"))?;
        let workload = ctx
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let traced = ctx.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{f}: no result metrics"));
        };
        let group = groups.entry((workload, traced)).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                group.entry(name.clone()).or_default().push(v);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<5} {:<26} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "trace", "metric", "n", "q1", "median", "q3", "spread", "bound"
    );
    for ((workload, traced), metrics) in &groups {
        for (name, values) in metrics {
            let (q1, med, q3, spread) = match quartiles(values) {
                Some([q1, med, q3]) => (q1, med, q3, (q3 - q1) / med.abs()),
                None => (values[0], values[0], values[0], 0.0),
            };
            let bound = bounds.get(name);
            let _ = writeln!(
                out,
                "{:<14} {:<5} {:<26} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6}{}",
                workload,
                u8::from(*traced),
                name,
                values.len(),
                q1,
                med,
                q3,
                spread,
                bound.map_or("-".to_string(), |b| format!("{b}")),
                match bound {
                    Some(b) if name != "setup_s" && spread > *b => "  OVER BOUND",
                    Some(b) if spread > b / 3.0 => "  above bound/3",
                    _ => "",
                }
            );
        }
    }
    Ok(out)
}

/// `name → bound` of every end-to-end metric in a `BENCHMARK.json`.
fn read_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(name), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(name.to_string(), bound);
        }
    }
    Ok(out)
}
