//! The lexical rules L5 and L10: banned names and call shapes.
//!
//! Matched on the whole-file token stream (macro bodies and struct
//! fields included), flattened so a sequence can span group
//! boundaries; comments and literal contents are not tokens, so a
//! needle inside a string never fires. Identifiers are resolved through
//! the file's `use … as …` map first, so a renamed `VecDeque` or `mpsc`
//! is still caught. One finding per `(rule, line)`. L1–L4 and L6 are
//! clippy lints (DESIGN.md §13).

use super::model::FileEntry;
use crate::rules::{Finding, RuleScope};
use crate::scan::MarkerKind;
use std::collections::BTreeSet;
use syn::{Delimiter, TokenTree};

/// Flattened token with group boundaries kept as pseudo-tokens, so
/// sequence rules can match across nesting without recursion.
enum Flat {
    Id(String, u32),
    P(char, bool),
    Lit,
    Open(Delimiter),
    Close,
}

fn flatten(tokens: &[TokenTree], out: &mut Vec<Flat>) {
    for t in tokens {
        match t {
            TokenTree::Ident(i) => out.push(Flat::Id(i.text.clone(), i.span.line)),
            TokenTree::Punct(p) => out.push(Flat::P(p.ch, p.joint)),
            TokenTree::Literal(_) => out.push(Flat::Lit),
            TokenTree::Group(g) => {
                out.push(Flat::Open(g.delimiter));
                flatten(&g.stream, out);
                out.push(Flat::Close);
            }
        }
    }
}

/// Method calls that grow a queue (L10), matched as `.name(`.
const L10_GROWTH_METHODS: &[&str] = &["push_back", "push_front", "extend_from_slice"];

/// Runs the lexical rules for one file under its path-derived scope.
pub fn check(entry: &FileEntry, scope: RuleScope, out: &mut Vec<Finding>) {
    let mut flat = Vec::new();
    flatten(&entry.tokens, &mut flat);
    let renames = entry.rename_map();
    let resolved = |text: &str| -> String {
        match renames.get(text) {
            Some(path) => path.last().cloned().unwrap_or_else(|| text.to_string()),
            None => text.to_string(),
        }
    };

    // (rule, line) hits: one finding per rule and line.
    let mut hits: BTreeSet<(&'static str, usize)> = BTreeSet::new();
    let mut hit = |rule: &'static str, line: u32| {
        let line = line as usize;
        if line != 0 && !entry.source.line_is_test(line) {
            hits.insert((rule, line));
        }
    };

    for (i, t) in flat.iter().enumerate() {
        let Flat::Id(text, line) = t else { continue };
        if scope.l5 && text == "loop" {
            hit("L5", *line);
        }
        if scope.l10 {
            let name = resolved(text);
            let dot_before = i > 0 && matches!(flat[i - 1], Flat::P('.', _));
            let call_next = matches!(flat.get(i + 1), Some(Flat::Open(Delimiter::Parenthesis)));
            // `name::next` path step, if one follows.
            let path_next = match (flat.get(i + 1), flat.get(i + 2), flat.get(i + 3)) {
                (Some(Flat::P(':', true)), Some(Flat::P(':', _)), Some(Flat::Id(next, _))) => {
                    Some((next.as_str(), i + 4))
                }
                _ => None,
            };
            let constructor = name == "VecDeque"
                && matches!(path_next, Some(("new" | "with_capacity", after))
                    if matches!(flat.get(after), Some(Flat::Open(Delimiter::Parenthesis))));
            let growth = dot_before && call_next && L10_GROWTH_METHODS.contains(&text.as_str());
            let channel = (name == "mpsc" && matches!(path_next, Some(("channel", _))))
                || text.contains("sync_channel")
                || text.contains("unbounded");
            if constructor || growth || channel {
                hit("L10", *line);
            }
        }
    }

    for (rule, line) in hits {
        let (marker, message) = if rule == "L5" {
            (MarkerKind::L5Ok, L5_MESSAGE)
        } else {
            (MarkerKind::L10Ok, L10_MESSAGE)
        };
        let message = match entry.source.marker_for(marker, line) {
            // An `l10-ok` justification must name the bound, not just
            // assert safety.
            Some(m) if rule == "L10" && !m.reason.trim_start().starts_with("bound") => format!(
                "`l10-ok` reason must start with `bound:` naming the capacity \
                 that keeps this queue finite (got `{}`)",
                m.reason
            ),
            Some(_) => continue,
            None => message.to_string(),
        };
        out.push(Finding {
            rule,
            path: entry.rel.clone(),
            line,
            snippet: entry
                .source
                .raw_lines
                .get(line - 1)
                .cloned()
                .unwrap_or_default(),
            message,
        });
    }
}

const L5_MESSAGE: &str = "indefinite `loop` in control-plane code: retries must be bounded \
     (route them through `RetryPolicy::max_attempts`), or document the \
     termination bound with `// lint: l5-ok(reason)`";

const L10_MESSAGE: &str = "queue/channel growth in a service request path: bound it \
     (cap + shed/backpressure) and document the capacity with \
     `// lint: l10-ok(bound: ...)`";

#[cfg(test)]
mod tests {
    use super::*;

    /// Full lint pass (rules + marker hygiene) over `src` as module `x`
    /// of the crate that owns `rel`.
    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        let root = format!(
            "{}/lib.rs",
            rel.rsplit_once('/').map(|(d, _)| d).unwrap_or("src")
        );
        crate::lint_sources(&[(root.as_str(), "mod x;\n"), (rel, src)])
    }

    fn keys(out: &[Finding]) -> Vec<(&'static str, usize)> {
        out.iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn one_positive_per_rule_at_the_planted_line() {
        let src = "use std::collections::VecDeque;\npub fn f(q: &mut VecDeque<u8>) {\n    loop { break; }\n    q.push_back(1);\n}\n";
        let out = findings("crates/service/src/x.rs", src);
        assert_eq!(keys(&out), vec![("L10", 4), ("L5", 3)], "{out:?}");

        // Scope follows the crate: sdn has L5 but not L10.
        let out = findings("crates/sdn/src/x.rs", src);
        assert_eq!(keys(&out), vec![("L5", 3)], "{out:?}");
    }

    #[test]
    fn needles_are_whole_identifiers() {
        let src = "pub struct NoVecDeque;\npub fn push_back_all() {}\npub fn f(x: u32) -> NoVecDeque {\n    push_back_all();\n    let _loops = x;\n    NoVecDeque\n}\n";
        let out = findings("crates/service/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn markers_and_test_regions_suppress() {
        let src = "pub fn f() {\n    // lint: l5-ok(breaks on the first pass)\n    loop { break; }\n}\n#[cfg(test)]\nmod tests {\n    fn t() { loop { break; } }\n}\n";
        let out = findings("crates/sdn/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reasonless_marker_is_reported() {
        let src = "pub fn f() {\n    // lint: l5-ok()\n    loop { break; }\n}\n";
        let out = findings("crates/sdn/src/x.rs", src);
        assert_eq!(keys(&out), vec![("marker", 2)], "{out:?}");
        assert!(out[0].message.contains("has no reason"), "{out:?}");
    }

    fn l5_findings(src: &str) -> Vec<Finding> {
        findings("crates/sdn/src/x.rs", src)
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

    fn l10_findings(src: &str) -> Vec<Finding> {
        findings("crates/service/src/x.rs", src)
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
    fn l10_flags_every_needle() {
        let src = "use std::collections::VecDeque;\nuse std::sync::mpsc;\nfn f(q: &mut VecDeque<u8>, v: &mut Vec<u8>) {\n    let _: VecDeque<u8> = VecDeque::with_capacity(4);\n    q.push_front(1);\n    v.extend_from_slice(&[1]);\n    let _ = mpsc::channel::<u8>();\n    let _ = mpsc::sync_channel::<u8>(1);\n    let _ = unbounded_queue();\n}\n";
        let out = l10_findings(src);
        assert_eq!(
            keys(&out),
            vec![
                ("L10", 4),
                ("L10", 5),
                ("L10", 6),
                ("L10", 7),
                ("L10", 8),
                ("L10", 9)
            ],
            "{out:?}"
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
}
