//! Shared deterministic report writer.
//!
//! Every JSON artifact the workspace emits (`BENCH_*.json`, the
//! `results/METRICS_*.json` registry dumps, and the `.jsonl` trace
//! exports) goes through this module so reruns diff cleanly:
//!
//! * documents are **normalized** before writing — keys that would embed
//!   machine-local state (wall-clock timestamps, hostnames, working
//!   directories) are stripped, and absolute paths under the current
//!   working directory are rewritten relative to it;
//! * output always ends in exactly one trailing newline;
//! * parent directories are created as needed.

use serde_json::Value;
use std::io;
use std::path::Path;

/// Keys whose values are machine-local by construction and are removed
/// from any emitted document (at any nesting depth). Thread counts
/// depend on the machine's core count, so reports carry none — only
/// deterministic workload/topology parameters.
const LOCAL_KEYS: [&str; 8] = [
    "generated_at",
    "timestamp",
    "wall_clock",
    "hostname",
    "cwd",
    "abs_path",
    "threads",
    "num_threads",
];

/// Strips machine-local keys and relativizes absolute paths (in place).
pub fn normalize(doc: &mut Value) {
    let cwd = std::env::current_dir()
        .ok()
        .map(|p| p.to_string_lossy().into_owned());
    normalize_inner(doc, cwd.as_deref());
}

fn normalize_inner(v: &mut Value, cwd: Option<&str>) {
    match v {
        Value::Object(members) => {
            members.retain(|(k, _)| !LOCAL_KEYS.contains(&k.as_str()));
            for (_, m) in members.iter_mut() {
                normalize_inner(m, cwd);
            }
        }
        Value::Array(items) => {
            for item in items.iter_mut() {
                normalize_inner(item, cwd);
            }
        }
        Value::Str(s) => {
            if let Some(root) = cwd {
                if let Some(rest) = s.strip_prefix(root) {
                    *s = rest.trim_start_matches('/').to_string();
                }
            }
        }
        _ => {}
    }
}

/// Writes `body` to `path`, creating parent directories and normalizing
/// the trailing newline. All trace/report emitters funnel through here.
pub fn write_text(path: &Path, body: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut body = body.trim_end_matches('\n').to_string();
    body.push('\n');
    std::fs::write(path, body)
}

/// Normalizes `doc` and writes it pretty-printed to `path`.
pub fn write_report(path: &Path, doc: &mut Value) -> io::Result<()> {
    normalize(doc);
    let body = serde_json::to_string_pretty(doc)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_text(path, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_local_keys_recursively() {
        let mut doc = Value::Object(vec![
            ("bench".into(), Value::Str("admission".into())),
            ("generated_at".into(), Value::Str("2026-08-06".into())),
            (
                "inner".into(),
                Value::Object(vec![
                    ("hostname".into(), Value::Str("box".into())),
                    ("keep".into(), Value::UInt(1)),
                ]),
            ),
        ]);
        normalize(&mut doc);
        assert!(doc.get("generated_at").is_none());
        let inner = doc.get("inner").expect("inner kept");
        assert!(inner.get("hostname").is_none());
        assert_eq!(inner.get("keep").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn normalize_relativizes_cwd_paths() {
        let cwd = std::env::current_dir().expect("cwd");
        let abs = cwd.join("results/out.json");
        let mut doc = Value::Str(abs.to_string_lossy().into_owned());
        normalize(&mut doc);
        assert_eq!(doc.as_str(), Some("results/out.json"));
    }

    #[test]
    fn write_text_ensures_single_trailing_newline() {
        let dir = std::env::temp_dir().join("taps-obs-json-test");
        let path = dir.join("t.txt");
        write_text(&path, "hello\n\n\n").expect("write");
        assert_eq!(std::fs::read_to_string(&path).expect("read"), "hello\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
