//! L9 — per-site atomic memory-ordering allowlist.
//!
//! The workspace has exactly one lock-free path: the wait-free
//! observability ring (`crates/obs/src/ring.rs`). Every `Ordering::X`
//! use in that file must carry a
//! `// lint: l9-ok(X: why)` marker on the same line or the line above,
//! whose justification *names the ordering it defends*: the reason must
//! start with `<Ordering>:` for one of the orderings at the site and
//! mention every ordering used on the line, so weakening `Acquire` to
//! `Relaxed` makes the stale justification visible in review instead of
//! silently surviving. The paired `loom` models (`--features loom`)
//! check the claims the justifications make.

use super::model::Workspace;
use crate::rules::Finding;
use crate::scan::MarkerKind;
use std::collections::BTreeMap;
use syn::TokenTree;

/// Files under the per-site ordering allowlist.
const SCOPE_FILES: &[&str] = &["crates/obs/src/ring.rs"];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

pub fn check(ws: &Workspace, out: &mut Vec<Finding>) {
    for rel in SCOPE_FILES {
        let Some(entry) = ws.files.get(*rel) else {
            continue;
        };
        // line → orderings used on it, in source order.
        let mut sites: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        collect_orderings(&entry.tokens, &mut sites);
        for (line, orderings) in sites {
            if entry.source.line_is_test(line) {
                continue;
            }
            let listed = orderings.join("/");
            let Some(marker) = entry.source.marker_for(MarkerKind::L9Ok, line) else {
                out.push(Finding {
                    rule: "L9",
                    path: rel.to_string(),
                    line,
                    snippet: entry
                        .source
                        .raw_lines
                        .get(line - 1)
                        .cloned()
                        .unwrap_or_default(),
                    message: format!(
                        "undocumented atomic ordering `Ordering::{listed}`: every ordering \
                         on this lock-free path needs `// lint: l9-ok({}: why)` naming the \
                         ordering and justifying it (the loom model checks the claim)",
                        orderings[0],
                    ),
                });
                continue;
            };
            let starts_ok = orderings
                .iter()
                .any(|o| marker.reason.starts_with(&format!("{o}:")));
            let mentions_all = orderings.iter().all(|o| marker.reason.contains(o.as_str()));
            if !starts_ok || !mentions_all {
                out.push(Finding {
                    rule: "L9",
                    path: rel.to_string(),
                    line,
                    snippet: entry
                        .source
                        .raw_lines
                        .get(line - 1)
                        .cloned()
                        .unwrap_or_default(),
                    message: format!(
                        "l9-ok justification `{}` does not match the ordering(s) \
                         `{listed}` used here: start the reason with `<Ordering>:` and \
                         name every ordering on the line, so the justification goes \
                         stale when the ordering changes",
                        marker.reason,
                    ),
                });
            }
        }
    }
}

fn collect_orderings(tokens: &[TokenTree], sites: &mut BTreeMap<usize, Vec<String>>) {
    for (i, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Group(g) => collect_orderings(&g.stream, sites),
            TokenTree::Ident(id) if id.text == "Ordering" => {
                let path = matches!(
                    tokens.get(i + 1),
                    Some(TokenTree::Punct(p)) if p.ch == ':' && p.joint
                ) && matches!(
                    tokens.get(i + 2),
                    Some(TokenTree::Punct(p)) if p.ch == ':'
                );
                if !path {
                    continue;
                }
                if let Some(TokenTree::Ident(ord)) = tokens.get(i + 3) {
                    if ORDERINGS.contains(&ord.text.as_str()) {
                        sites
                            .entry(ord.span.line as usize)
                            .or_default()
                            .push(ord.text.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l9(ring_src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(&[
            ("crates/obs/src/lib.rs", "pub mod ring;\n"),
            ("crates/obs/src/ring.rs", ring_src),
        ]);
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    #[test]
    fn undocumented_ordering_is_flagged() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn bump(a: &AtomicU64) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let out = l9(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].rule, out[0].line), ("L9", 3));
        assert!(out[0].message.contains("Relaxed"));
    }

    #[test]
    fn named_justification_passes_and_mismatch_fails() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn bump(a: &AtomicU64) {\n    // lint: l9-ok(Relaxed: counter is a monotonic hint, no data depends on it)\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(l9(src).is_empty(), "{:?}", l9(src));

        // Justification names the wrong ordering: stale, must be flagged.
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn bump(a: &AtomicU64) {\n    // lint: l9-ok(Acquire: pairs with the marker store)\n    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let out = l9(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("does not match"));
    }

    #[test]
    fn multi_ordering_lines_need_every_name() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn cas(a: &AtomicU64) {\n    // lint: l9-ok(AcqRel: RMW publishes and observes; failure load is Acquire)\n    let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n}\n";
        assert!(l9(src).is_empty(), "{:?}", l9(src));
    }
}
