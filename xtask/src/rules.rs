//! The lint rule table, per-path rule scopes, and allowlist hygiene.
//!
//! | rule | what                                                   | engine: lint                           | scope                                  | allowlist                 |
//! |------|--------------------------------------------------------|----------------------------------------|----------------------------------------|---------------------------|
//! | L1   | `HashMap`/`HashSet` in decision-path code              | clippy: `disallowed_types`             | core, sdn, flowsim, baselines, service | `#[expect(.., reason)]`   |
//! | L2   | bare `as` numeric casts on slot/`u64` arithmetic       | clippy: `as_conversions`               | timeline, core                         | `#[expect(.., reason)]`   |
//! | L3   | `unwrap`/`expect`/`panic!` in non-test library code    | clippy: `unwrap_used`, `expect_used`, `panic`, `unreachable`, `todo`, `unimplemented` | every library crate but bench | `#[expect(.., reason)]` |
//! | L4   | wall clock in deterministic sim crates                 | clippy: `disallowed_methods`           | every library crate but obs, bench and `taps` | `#[expect(.., reason)]` |
//! | L5   | indefinite `loop` in control-plane (retry) code        | xtask: [`crate::ast::lexical`]         | sdn, service, core's `arbiter.rs`      | `l5-ok`                   |
//! | L6   | ad-hoc `println!`/`eprintln!` in library code          | clippy: `print_stdout`, `print_stderr`, `dbg_macro` | every library crate but bench | `#[expect(.., reason)]` |
//! | L7   | public schedule mutation with no validate-gated commit | xtask: [`crate::ast::l7`]              | core, sdn                              | `l7-ok`                   |
//! | L8   | bare float comparison in decision-path code            | xtask: [`crate::ast::l8`]              | core, sdn, flowsim, baselines          | `l8-ok`                   |
//! | L10  | unbounded channels / queue growth in request paths     | xtask: [`crate::ast::lexical`]         | service                                | `l10-ok(bound: ...)`      |
//!
//! Each library crate's `lib.rs` denies its clippy rules outside tests
//! (DESIGN.md §13), and `unfulfilled_lint_expectations` makes a stale
//! `#[expect]` an error. This module scopes the xtask rules: L5 and L10
//! match the token stream, L7 and L8 need item structure. (There is no
//! L9: it audited the atomics of a lock-free recorder that no longer
//! exists.)
//!
//! Markers are `// lint: <name>-ok(reason)` on the offending line or the
//! line directly above; a marker must carry a non-empty reason and must
//! suppress at least one finding, otherwise it is reported as stale.

use crate::scan::SourceModel;
use std::fmt;

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    pub message: String,
    pub snippet: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}:{}", self.rule, self.path, self.line)?;
        writeln!(f, "  {}", self.snippet.trim())?;
        write!(f, "  {}", self.message)
    }
}

/// Which rules apply to a file, decided from its workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct RuleScope {
    pub l5: bool,
    pub l10: bool,
}

/// Control-plane code where indefinite `loop`s are banned (L5): every
/// retry site must be bounded by a [`RetryPolicy`]-style max-attempts
/// budget, or document its termination argument with an `l5-ok` marker.
/// Two crates and one file: the Alg. 1 arbiter lives in `taps-core` but
/// its degrading and re-pack loops run on the daemon's decision path
/// (the rest of core is allocation code with no retry loops).
const L5_CRATES: &[&str] = &[
    "crates/sdn/",
    "crates/service/",
    "crates/core/src/arbiter.rs",
];
/// Live-service crates where every queue must be bounded (L10): a
/// long-lived daemon's request path must not hold an unbounded channel
/// or grow a queue without a documented capacity.
const L10_CRATES: &[&str] = &["crates/service/"];

/// Decides the rule set for a workspace-relative path, or `None` when the
/// file is out of scope entirely (tests, benches, examples, bins, the
/// compat shims, and xtask itself).
pub fn scope_for(rel: &str) -> Option<RuleScope> {
    let rel = rel.replace('\\', "/");
    if !rel.ends_with(".rs") {
        return None;
    }
    // Compat shims emulate third-party crates; xtask is the lint tool;
    // the bench crate and the standalone benchmark harness are
    // measurement harnesses (panicking on setup failure and printing
    // reports is fine there, and they are not part of the scheduling
    // library).
    if rel.starts_with("compat/")
        || rel.starts_with("xtask/")
        || rel.starts_with("crates/bench/")
        || rel.starts_with("benchmark/")
        || rel.starts_with("target/")
    {
        return None;
    }
    // Only library code: skip integration tests, benches, examples, and
    // binary targets (CLIs may panic on bad input; they are not part of
    // the deterministic scheduling library).
    if rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/bin/")
        || rel.ends_with("build.rs")
    {
        return None;
    }
    if !rel.contains("/src/") && !rel.starts_with("src/") {
        return None;
    }
    Some(RuleScope {
        l5: L5_CRATES.iter().any(|c| rel.starts_with(c)),
        l10: L10_CRATES.iter().any(|c| rel.starts_with(c)),
    })
}

/// Reports any allowlist marker that suppressed nothing (stale) or that
/// carries no reason. Call after every rule ran over the file.
pub fn check_marker_hygiene(model: &SourceModel, rel: &str, out: &mut Vec<Finding>) {
    for m in &model.markers {
        let message = if m.reason.is_empty() {
            format!(
                "allowlist marker `{}` has no reason — write `// lint: {}(why)`",
                m.kind, m.kind
            )
        } else if !m.used.get() {
            format!(
                "stale allowlist marker `{}`: it suppresses no finding — remove it",
                m.kind
            )
        } else {
            continue;
        };
        out.push(Finding {
            rule: "marker",
            path: rel.to_string(),
            line: m.line,
            snippet: model.raw_lines.get(m.line - 1).cloned().unwrap_or_default(),
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l5_scope_is_the_control_plane_crates() {
        assert!(scope_for("crates/sdn/src/controller.rs").unwrap().l5);
        assert!(scope_for("crates/service/src/uds.rs").unwrap().l5);
        // The arbiter's loops moved out of sdn with their markers; the
        // scope follows the file, not the whole of core.
        assert!(scope_for("crates/core/src/arbiter.rs").unwrap().l5);
        assert!(!scope_for("crates/core/src/scheduler.rs").unwrap().l5);
        assert!(!scope_for("crates/core/src/delta.rs").unwrap().l5);
        assert!(scope_for("crates/sdn/src/chaos.rs").unwrap().l5);
        assert!(scope_for("crates/sdn/tests/chaos_proptests.rs").is_none());
    }

    #[test]
    fn l10_scope_is_the_service_crate_only() {
        assert!(scope_for("crates/service/src/transport.rs").unwrap().l10);
        assert!(!scope_for("crates/sdn/src/controller.rs").unwrap().l10);
        assert!(scope_for("crates/service/src/bin/taps-serviced.rs").is_none());
        assert!(scope_for("crates/service/tests/service.rs").is_none());
    }
}
