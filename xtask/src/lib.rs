//! Workspace automation library: the repo-specific determinism & safety
//! lint pass behind `cargo xtask lint`, the seeded control-plane
//! chaos gate behind `cargo xtask chaos --seeds N`, and the golden-trace
//! gate behind `cargo xtask trace` ([`trace`], DESIGN.md §11).
//!
//! The lint pass is one engine: the workspace is parsed once into a
//! `syn`-based item model ([`ast`]) and every rule it still owns — the
//! lexical rules L5 and L10, the call-graph rule L7, the float-ordering
//! rule L8 — runs over it. Allowlist-marker staleness is accounted once,
//! after every rule ran. L1–L4 and L6 are clippy lints (DESIGN.md §13).
//!
//! See [`rules`] for the rule table and DESIGN.md §"Scheduler
//! invariants & static analysis" + §13 for the rationale; [`chaos`]
//! documents the chaos gate's contract (DESIGN.md §10).

pub mod ast;
pub mod bench_smoke;
pub mod chaos;
pub mod rules;
pub mod scan;
pub mod scenarios;
pub mod trace;

use rules::Finding;
use std::path::{Path, PathBuf};

/// Recursively collects every `.rs` file under `dir`, workspace-relative,
/// sorted for deterministic report order.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    files.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the lint pass over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut ws = ast::Workspace::load(root);
    for rel in collect_rust_files(root)? {
        // In-scope files outside the module tree (dead files, staged
        // modules) still get the lexical rules and marker hygiene.
        if !ws.files.contains_key(&rel) && rules::scope_for(&rel).is_some() {
            ws.add_orphan(&rel, &std::fs::read_to_string(root.join(&rel))?);
        }
    }
    Ok(lint_model(&ws))
}

/// Runs the same pass over in-memory `(rel, source)` fixtures (exposed
/// for the engine's own mutation tests).
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    lint_model(&ast::Workspace::from_sources(files))
}

/// Every rule, then one hygiene sweep over the markers they used.
fn lint_model(ws: &ast::Workspace) -> Vec<Finding> {
    let mut findings = ast::analyze(ws);
    for (rel, entry) in &ws.files {
        if rules::scope_for(rel).is_some() {
            rules::check_marker_hygiene(&entry.source, rel, &mut findings);
        }
    }
    findings.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    findings
}
