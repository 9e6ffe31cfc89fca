//! What every result is recorded with, so one revision's figures compare
//! cleanly with the previous one's: host cores, the code revision, the
//! seed, table sizes, and the server flags.

use std::path::{Path, PathBuf};

use fedex_frame::FpHasher;
use fedex_serve::json::{n, obj, s, Json};

use crate::wire::ServerFlags;
use crate::workload::Plan;

/// The benchmark crate's directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where results and span dumps are written.
pub fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// The revision under test: `git rev-parse HEAD` when the tree is a git
/// checkout, else `"unknown"`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(bench_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// A digest of the program's sources (every file under `crates/` and
/// `src/`, plus the root manifest and lock file), which identifies the
/// code even where no git metadata exists.
pub fn source_digest() -> String {
    let root = bench_dir().join("..");
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect(&root.join(dir), &mut files);
    }
    files.extend([root.join("Cargo.toml"), root.join("Cargo.lock")]);
    files.sort();
    let mut h = FpHasher::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            h.write_bytes(rel.to_string_lossy().as_bytes());
            h.write_u64(bytes.len() as u64);
            h.write_bytes(&bytes);
        }
    }
    h.finish().to_hex()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// The record printed and saved with a result.
pub fn record(plan: &Plan, seconds: f64, traced: bool) -> Json {
    let flags = ServerFlags::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("workload", s(plan.workload.name())),
        ("seed", n(plan.seed as f64)),
        ("seconds", n(seconds)),
        ("trace", Json::Bool(traced)),
        ("nproc", n(nproc as f64)),
        ("commit", s(commit())),
        ("source_digest", s(source_digest())),
        (
            "rows",
            Json::Obj(
                plan.workload
                    .rows()
                    .into_iter()
                    .map(|(t, r)| (t.to_string(), n(r as f64)))
                    .collect(),
            ),
        ),
        (
            "server_flags",
            obj([
                ("workers", n(flags.workers as f64)),
                ("exec", s(flags.exec)),
                ("cache_mb", n(flags.cache_mb as f64)),
                ("cache_policy", s(flags.cache_policy)),
                ("queue_depth", n(flags.queue_depth as f64)),
                ("session_quota", n(flags.session_quota as f64)),
                ("degrade", s(flags.degrade)),
            ]),
        ),
    ])
}

/// Save `{"context":…,"result":…}` as
/// `results/<workload>-trace<0|1>-seed<n>.json`.
pub fn save(plan: &Plan, traced: bool, ctx: &Json, result_line: &str) -> Result<PathBuf, String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-trace{}-seed{}.json",
        plan.workload.name(),
        u8::from(traced),
        plan.seed
    ));
    let body = format!("{{\"context\":{ctx},\"result\":{result_line}}}\n");
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
