//! The token-scanner lint rules (L1–L6 and L10) plus allowlist hygiene.
//!
//! | rule | what                                                   | scope                              | allowlist marker        |
//! |------|--------------------------------------------------------|------------------------------------|-------------------------|
//! | L1   | `HashMap`/`HashSet` in decision-path code              | core, sdn, flowsim, baselines      | `nondeterministic-ok`   |
//! | L2   | bare `as` numeric casts on slot/`u64` arithmetic       | timeline, core                     | `cast-ok`               |
//! | L3   | `unwrap`/`expect`/`panic!` in non-test library code    | every workspace lib crate          | `panic-ok`              |
//! | L4   | wall clock / unseeded RNG in deterministic sim crates  | timeline, topology, core, flowsim, workload, baselines | `nondeterministic-ok` |
//! | L5   | indefinite `loop` in control-plane (retry) code        | sdn, service                       | `l5-ok`                 |
//! | L6   | ad-hoc `println!`/`eprintln!` in library code          | every workspace lib crate          | `l6-ok`                 |
//! | L10  | unbounded channels / queue growth in request paths     | service                            | `l10-ok(bound: ...)`    |
//!
//! Markers are `// lint: <name>-ok(reason)` on the offending line or the
//! line directly above; a marker must carry a non-empty reason and must
//! suppress at least one finding, otherwise it is reported as stale.

use crate::scan::{MarkerKind, SourceModel};
use std::fmt;
use std::path::Path;

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
    pub l1: bool,
    pub l2: bool,
    pub l3: bool,
    pub l4: bool,
    pub l5: bool,
    pub l6: bool,
    pub l10: bool,
}

/// Crates whose decision paths must not iterate hash collections (L1).
const L1_CRATES: &[&str] = &[
    "crates/core/",
    "crates/sdn/",
    "crates/flowsim/",
    "crates/baselines/",
    "crates/service/",
];
/// Crates doing slot arithmetic where bare `as` casts are banned (L2).
const L2_CRATES: &[&str] = &["crates/timeline/", "crates/core/"];
/// Deterministic simulation crates where wall clock / ambient RNG are banned (L4).
const L4_CRATES: &[&str] = &[
    "crates/timeline/",
    "crates/topology/",
    "crates/core/",
    "crates/flowsim/",
    "crates/workload/",
    "crates/baselines/",
    "crates/sdn/",
    "crates/service/",
];
/// Control-plane crates where indefinite `loop`s are banned (L5): every
/// retry site must be bounded by a [`RetryPolicy`]-style max-attempts
/// budget, or document its termination argument with an `l5-ok` marker.
const L5_CRATES: &[&str] = &["crates/sdn/", "crates/service/"];
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
        l1: L1_CRATES.iter().any(|c| rel.starts_with(c)),
        l2: L2_CRATES.iter().any(|c| rel.starts_with(c)),
        l3: true,
        l4: L4_CRATES.iter().any(|c| rel.starts_with(c)),
        l5: L5_CRATES.iter().any(|c| rel.starts_with(c)),
        l6: true,
        l10: L10_CRATES.iter().any(|c| rel.starts_with(c)),
    })
}

/// Runs every applicable rule over one parsed file.
pub fn check_file(model: &SourceModel, scope: RuleScope, rel: &str, out: &mut Vec<Finding>) {
    if scope.l1 {
        check_tokens(
            model,
            rel,
            "L1",
            &["HashMap", "HashSet"],
            MarkerKind::NondeterministicOk,
            "hash collection in a decision path: iteration order is nondeterministic; \
             use BTreeMap/BTreeSet or an explicit sort, or allowlist with \
             `// lint: nondeterministic-ok(reason)`",
            out,
        );
    }
    if scope.l2 {
        check_casts(model, rel, out);
    }
    if scope.l3 {
        check_tokens(
            model,
            rel,
            "L3",
            &[
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ],
            MarkerKind::PanicOk,
            "panic path in non-test library code: propagate a Result or document \
             the invariant with `// lint: panic-ok(reason)`",
            out,
        );
    }
    if scope.l5 {
        check_indefinite_loops(model, rel, out);
    }
    if scope.l10 {
        check_unbounded_queues(model, rel, out);
    }
    if scope.l6 {
        check_tokens(
            model,
            rel,
            "L6",
            &["println!", "eprintln!", "print!", "eprint!", "dbg!"],
            MarkerKind::L6Ok,
            "ad-hoc stdout/stderr printing in library code: emit a structured \
             `taps_obs::TraceEvent` through the crate's trace sink (or return the \
             data), or allowlist with `// lint: l6-ok(reason)`",
            out,
        );
    }
    if scope.l4 {
        check_tokens(
            model,
            rel,
            "L4",
            &[
                "Instant::now",
                "SystemTime",
                "thread_rng",
                "from_entropy",
                "rand::random",
                "OsRng",
                "getrandom",
            ],
            MarkerKind::NondeterministicOk,
            "wall clock / ambient randomness in a deterministic simulation crate: \
             take the seed or timestamp as an input (workloads and fault plans \
             must derive from a seeded StdRng), or allowlist with \
             `// lint: nondeterministic-ok(reason)`",
            out,
        );
    }
}

/// Reports any allowlist marker that suppressed nothing (stale) or that
/// carries no reason. Call after every rule ran over the file.
pub fn check_marker_hygiene(model: &SourceModel, rel: &str, out: &mut Vec<Finding>) {
    for m in &model.markers {
        if m.reason.is_empty() {
            out.push(Finding {
                rule: "marker",
                path: rel.to_string(),
                line: m.line,
                snippet: model.raw_lines.get(m.line - 1).cloned().unwrap_or_default(),
                message: format!(
                    "allowlist marker `{}` has no reason — write `// lint: {}(why)`",
                    m.kind, m.kind
                ),
            });
        } else if !m.used.get() {
            out.push(Finding {
                rule: "marker",
                path: rel.to_string(),
                line: m.line,
                snippet: model.raw_lines.get(m.line - 1).cloned().unwrap_or_default(),
                message: format!(
                    "stale allowlist marker `{}`: it suppresses no finding — remove it",
                    m.kind
                ),
            });
        }
    }
}

/// Substring-token rule driver shared by L1, L3, and L4.
#[allow(clippy::too_many_arguments)]
fn check_tokens(
    model: &SourceModel,
    rel: &str,
    rule: &'static str,
    needles: &[&str],
    marker: MarkerKind,
    message: &str,
    out: &mut Vec<Finding>,
) {
    for (idx, code) in model.code_lines.iter().enumerate() {
        let line = idx + 1;
        if model.line_is_test(line) {
            continue;
        }
        let hit = needles.iter().any(|n| {
            code.match_indices(n).any(|(pos, _)| {
                // Require a word boundary before identifier-like needles so
                // e.g. `NoHashMap` or a method named `do_unwrap()` can't
                // accidentally match.
                let first = n.chars().next().unwrap_or(' ');
                if first.is_alphanumeric() {
                    let prev = code[..pos].chars().next_back();
                    !matches!(prev, Some(p) if p.is_alphanumeric() || p == '_')
                } else {
                    true
                }
            })
        });
        if !hit {
            continue;
        }
        if model.marker_for(marker, line).is_some() {
            continue;
        }
        out.push(Finding {
            rule,
            path: rel.to_string(),
            line,
            snippet: model.raw_lines.get(idx).cloned().unwrap_or_default(),
            message: message.to_string(),
        });
    }
}

/// L5: flags the indefinite `loop` keyword in non-test control-plane
/// library code. A lossy control plane must never retry forever: retry
/// sites go through [`taps_sdn::RetryPolicy`]'s `max_attempts` budget
/// (bounded `for`/iterator loops pass the rule by construction), and any
/// remaining `loop` must carry a `// lint: l5-ok(reason)` marker whose
/// reason states the termination bound.
fn check_indefinite_loops(model: &SourceModel, rel: &str, out: &mut Vec<Finding>) {
    for (idx, code) in model.code_lines.iter().enumerate() {
        let line = idx + 1;
        if model.line_is_test(line) {
            continue;
        }
        // Word-bounded on both sides: `loop` and `'outer: loop` match,
        // identifiers like `event_loop` or `loop_count` do not.
        let hit = code.match_indices("loop").any(|(pos, _)| {
            let prev = code[..pos].chars().next_back();
            let next = code[pos + 4..].chars().next();
            !matches!(prev, Some(p) if p.is_alphanumeric() || p == '_')
                && !matches!(next, Some(n) if n.is_alphanumeric() || n == '_')
        });
        if !hit {
            continue;
        }
        if model.marker_for(MarkerKind::L5Ok, line).is_some() {
            continue;
        }
        out.push(Finding {
            rule: "L5",
            path: rel.to_string(),
            line,
            snippet: model.raw_lines.get(idx).cloned().unwrap_or_default(),
            message: "indefinite `loop` in control-plane code: retries must be bounded \
                      (route them through `RetryPolicy::max_attempts`), or document the \
                      termination bound with `// lint: l5-ok(reason)`"
                .to_string(),
        });
    }
}

/// Tokens that allocate or grow a queue/channel on a request path.
const L10_TOKENS: &[&str] = &[
    "VecDeque::new(",
    "VecDeque::with_capacity(",
    ".push_back(",
    ".push_front(",
    ".extend_from_slice(",
    "mpsc::channel",
    "sync_channel",
    "unbounded",
];

/// L10: every queue in a live-service request path must be bounded. A
/// daemon that accepts work from the network amplifies any unbounded
/// buffer into a memory-exhaustion path under overload, so channel
/// constructors and queue-growth calls in `crates/service` must carry a
/// `// lint: l10-ok(bound: ...)` marker whose reason names the capacity
/// (and who enforces it). A marker whose reason does not start with
/// `bound` is reported: the justification must name the bound, not just
/// assert safety.
fn check_unbounded_queues(model: &SourceModel, rel: &str, out: &mut Vec<Finding>) {
    for (idx, code) in model.code_lines.iter().enumerate() {
        let line = idx + 1;
        if model.line_is_test(line) {
            continue;
        }
        if !L10_TOKENS.iter().any(|n| code.contains(n)) {
            continue;
        }
        match model.marker_for(MarkerKind::L10Ok, line) {
            Some(m) if m.reason.trim_start().starts_with("bound") => continue,
            Some(m) => {
                out.push(Finding {
                    rule: "L10",
                    path: rel.to_string(),
                    line,
                    snippet: model.raw_lines.get(idx).cloned().unwrap_or_default(),
                    message: format!(
                        "`l10-ok` reason must start with `bound:` naming the capacity \
                         that keeps this queue finite (got `{}`)",
                        m.reason
                    ),
                });
            }
            None => {
                out.push(Finding {
                    rule: "L10",
                    path: rel.to_string(),
                    line,
                    snippet: model.raw_lines.get(idx).cloned().unwrap_or_default(),
                    message: "queue/channel growth in a service request path: bound it \
                              (cap + shed/backpressure) and document the capacity with \
                              `// lint: l10-ok(bound: ...)`"
                        .to_string(),
                });
            }
        }
    }
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// L2: flags `<expr> as <numeric-type>` outside test code. The repo rule
/// is stricter than clippy's truncation lint: *every* bare numeric `as`
/// in the slot-arithmetic crates must either go through the checked
/// helpers in `taps_timeline::slots` / `try_from`, or carry a
/// `// lint: cast-ok(reason)` marker.
fn check_casts(model: &SourceModel, rel: &str, out: &mut Vec<Finding>) {
    for (idx, code) in model.code_lines.iter().enumerate() {
        let line = idx + 1;
        if model.line_is_test(line) {
            continue;
        }
        let mut found = false;
        for (pos, _) in code.match_indices(" as ") {
            let rest = code[pos + 4..].trim_start();
            let is_numeric = NUMERIC_TYPES.iter().any(|t| {
                rest.starts_with(t)
                    && !matches!(
                        rest[t.len()..].chars().next(),
                        Some(c) if c.is_alphanumeric() || c == '_'
                    )
            });
            if is_numeric {
                found = true;
                break;
            }
        }
        if !found {
            continue;
        }
        if model.marker_for(MarkerKind::CastOk, line).is_some() {
            continue;
        }
        out.push(Finding {
            rule: "L2",
            path: rel.to_string(),
            line,
            snippet: model.raw_lines.get(idx).cloned().unwrap_or_default(),
            message: "bare `as` numeric cast in slot-arithmetic code: use \
                      `taps_timeline::slots` helpers or `try_from`, or allowlist with \
                      `// lint: cast-ok(reason)`"
                .to_string(),
        });
    }
}

/// Lints one file from disk; returns findings (possibly empty).
pub fn lint_path(root: &Path, rel: &str, out: &mut Vec<Finding>) -> std::io::Result<()> {
    let Some(scope) = scope_for(rel) else {
        return Ok(());
    };
    let model = SourceModel::load(&root.join(rel))?;
    check_file(&model, scope, rel, out);
    check_marker_hygiene(&model, rel, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn l5_findings(src: &str) -> Vec<Finding> {
        let model = SourceModel::parse(Path::new("crates/sdn/src/x.rs"), src);
        let mut out = Vec::new();
        check_indefinite_loops(&model, "crates/sdn/src/x.rs", &mut out);
        check_marker_hygiene(&model, "crates/sdn/src/x.rs", &mut out);
        out
    }

    #[test]
    fn l5_flags_bare_loop_and_respects_marker() {
        let out = l5_findings("fn f() {\n    loop {\n        break;\n    }\n}\n");
        assert_eq!(out.len(), 1, "bare loop must be flagged: {out:?}");
        assert_eq!(out[0].rule, "L5");
        assert_eq!(out[0].line, 2);

        let out = l5_findings(
            "fn f() {\n    // lint: l5-ok(terminates: drains a finite queue)\n    loop {\n        break;\n    }\n}\n",
        );
        assert!(out.is_empty(), "marked loop must pass: {out:?}");
    }

    #[test]
    fn l5_ignores_identifiers_labels_and_test_code() {
        let out =
            l5_findings("fn f(event_loop: usize) -> usize {\n    event_loop + loop_count()\n}\n");
        assert!(out.is_empty(), "identifiers are not the keyword: {out:?}");

        let out = l5_findings("#[cfg(test)]\nmod tests {\n    fn t() {\n        loop {\n            break;\n        }\n    }\n}\n");
        assert!(out.is_empty(), "test code is out of scope: {out:?}");

        // A labelled loop is still an indefinite loop.
        let out = l5_findings("fn f() {\n    'outer: loop {\n        break 'outer;\n    }\n}\n");
        assert_eq!(out.len(), 1, "labelled loop must be flagged: {out:?}");
    }

    #[test]
    fn stale_l5_marker_is_reported() {
        let out = l5_findings("fn f() {\n    // lint: l5-ok(nothing to suppress)\n    let x = 1;\n    let _ = x;\n}\n");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "marker");
    }

    fn l6_findings(src: &str) -> Vec<Finding> {
        let rel = "crates/core/src/x.rs";
        let model = SourceModel::parse(Path::new(rel), src);
        let mut out = Vec::new();
        let scope = scope_for(rel).unwrap();
        check_file(&model, scope, rel, &mut out);
        check_marker_hygiene(&model, rel, &mut out);
        out.into_iter().filter(|f| f.rule != "L3").collect()
    }

    #[test]
    fn l6_flags_printing_and_respects_marker() {
        let out = l6_findings("fn f() {\n    println!(\"debug\");\n}\n");
        assert_eq!(out.len(), 1, "println must be flagged: {out:?}");
        assert_eq!(out[0].rule, "L6");
        assert_eq!(out[0].line, 2);

        let out = l6_findings("fn f() {\n    eprintln!(\"x\");\n    dbg!(1);\n}\n");
        assert_eq!(out.len(), 2, "eprintln and dbg must be flagged: {out:?}");

        let out = l6_findings(
            "fn f() {\n    // lint: l6-ok(CLI-facing progress line behind a verbose flag)\n    println!(\"x\");\n}\n",
        );
        assert!(out.is_empty(), "marked print must pass: {out:?}");
    }

    #[test]
    fn l6_ignores_test_code_and_identifiers() {
        let out = l6_findings(
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        println!(\"ok in tests\");\n    }\n}\n",
        );
        assert!(out.is_empty(), "test code is out of scope: {out:?}");

        let out = l6_findings("fn f(pretty_print: usize) -> usize {\n    pretty_print\n}\n");
        assert!(out.is_empty(), "identifiers are not macros: {out:?}");
    }

    #[test]
    fn l5_scope_is_the_control_plane_crates() {
        assert!(scope_for("crates/sdn/src/controller.rs").unwrap().l5);
        assert!(scope_for("crates/service/src/uds.rs").unwrap().l5);
        assert!(!scope_for("crates/core/src/scheduler.rs").unwrap().l5);
        assert!(scope_for("crates/sdn/src/chaos.rs").unwrap().l5);
        assert!(scope_for("crates/sdn/tests/chaos_proptests.rs").is_none());
    }

    fn l10_findings(src: &str) -> Vec<Finding> {
        let rel = "crates/service/src/x.rs";
        let model = SourceModel::parse(Path::new(rel), src);
        let mut out = Vec::new();
        check_unbounded_queues(&model, rel, &mut out);
        check_marker_hygiene(&model, rel, &mut out);
        out
    }

    #[test]
    fn l10_flags_queue_growth_without_a_bound() {
        let out = l10_findings(
            "fn f(q: &mut std::collections::VecDeque<u8>) {\n    q.push_back(1);\n}\n",
        );
        assert_eq!(out.len(), 1, "unmarked push_back must be flagged: {out:?}");
        assert_eq!(out[0].rule, "L10");
        assert_eq!(out[0].line, 2);

        let out = l10_findings(
            "use std::collections::VecDeque;\nfn f() -> VecDeque<u8> {\n    VecDeque::new()\n}\n",
        );
        assert_eq!(
            out.len(),
            1,
            "unmarked constructor must be flagged: {out:?}"
        );
    }

    #[test]
    fn l10_accepts_a_bound_reason_and_rejects_a_vague_one() {
        let out = l10_findings(
            "fn f(q: &mut std::collections::VecDeque<u8>) {\n    // lint: l10-ok(bound: queue_cap — on_submit sheds beyond it)\n    q.push_back(1);\n}\n",
        );
        assert!(out.is_empty(), "bound-documented growth must pass: {out:?}");

        let out = l10_findings(
            "fn f(q: &mut std::collections::VecDeque<u8>) {\n    // lint: l10-ok(this is fine, trust me)\n    q.push_back(1);\n}\n",
        );
        assert_eq!(out.len(), 1, "vague reason must be rejected: {out:?}");
        assert!(
            out[0].message.contains("must start with `bound:`"),
            "{out:?}"
        );
    }

    #[test]
    fn l10_scope_is_the_service_crate_only() {
        assert!(scope_for("crates/service/src/transport.rs").unwrap().l10);
        assert!(!scope_for("crates/sdn/src/controller.rs").unwrap().l10);
        assert!(scope_for("crates/service/src/bin/taps-serviced.rs").is_none());
        assert!(scope_for("crates/service/tests/service.rs").is_none());
    }
}
