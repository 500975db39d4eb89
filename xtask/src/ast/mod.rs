//! AST-aware analysis engine (DESIGN.md §13).
//!
//! Built on the `compat/syn` shim, this engine parses the workspace
//! into a per-crate item model ([`model::Workspace`]) with real
//! scoping — `use`-alias resolution, `#[cfg(test)]`/`#[test]`
//! exclusion, and an intra-workspace call graph — and runs every lint
//! rule over it:
//!
//! - [`lexical`] matches L5 and L10 on the token stream, resolving
//!   identifiers through the file's imports so a renamed queue type is
//!   still caught;
//! - [`l7`] (call-graph validator coverage) and [`l8`] (float-ordering
//!   hygiene) need item structure.
//!
//! Allowlist markers live in each file's
//! [`SourceModel`](crate::scan::SourceModel), so staleness is accounted
//! once, after every rule ran.

pub mod callgraph;
pub mod l7;
pub mod l8;
pub mod lexical;
pub mod model;

pub use model::Workspace;

use crate::rules::Finding;

/// Runs every AST rule over the loaded workspace.
pub fn analyze(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rel, message) in &ws.errors {
        out.push(Finding {
            rule: "ast",
            path: rel.clone(),
            line: 1,
            snippet: String::new(),
            message: format!("AST engine could not analyze this file: {message}"),
        });
    }
    for (rel, entry) in &ws.files {
        if let Some(scope) = crate::rules::scope_for(rel) {
            lexical::check(entry, scope, &mut out);
        }
    }
    let graph = callgraph::CallGraph::build(ws);
    l7::check(ws, &graph, &mut out);
    l8::check(ws, &mut out);
    out
}
