//! The lexical rules L1–L6 and L10: banned names and call shapes.
//!
//! Matched on the whole-file token stream (macro bodies and struct
//! fields included), flattened so a sequence can span group
//! boundaries; comments and literal contents are not tokens, so a
//! needle inside a string never fires. Identifiers are resolved through
//! the file's `use … as …` map first, so a renamed import is flagged
//! both where it is imported and where it is called
//! (`use std::time::Instant as T; T::now()`), and a glob import of a
//! banned module is flagged at the import. One finding per
//! `(rule, line)`.

use super::model::FileEntry;
use crate::rules::{Finding, RuleScope};
use crate::scan::MarkerKind;
use std::collections::BTreeMap;
use syn::{Delimiter, TokenTree};

/// Flattened token with group boundaries kept as pseudo-tokens, so
/// sequence rules can match across nesting without recursion.
enum Flat {
    Id(String, u32),
    P(char, bool),
    Lit,
    Open(Delimiter, bool),
    Close,
}

fn flatten(tokens: &[TokenTree], out: &mut Vec<Flat>) {
    for t in tokens {
        match t {
            TokenTree::Ident(i) => out.push(Flat::Id(i.text.clone(), i.span.line)),
            TokenTree::Punct(p) => out.push(Flat::P(p.ch, p.joint)),
            TokenTree::Literal(_) => out.push(Flat::Lit),
            TokenTree::Group(g) => {
                out.push(Flat::Open(g.delimiter, g.stream.is_empty()));
                flatten(&g.stream, out);
                out.push(Flat::Close);
            }
        }
    }
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];
/// Bare identifiers banned by L4 (after alias resolution).
const L4_IDENTS: &[&str] = &[
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
];
/// Import targets that stay banned when renamed or glob-imported.
const L4_ALIAS_TARGETS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

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
    let mut hits: BTreeMap<(&'static str, usize), String> = BTreeMap::new();
    let hit = |hits: &mut BTreeMap<(&'static str, usize), String>,
               rule: &'static str,
               line: u32,
               message: &str| {
        let line = line as usize;
        if line == 0 || entry.source.line_is_test(line) {
            return;
        }
        hits.entry((rule, line))
            .or_insert_with(|| message.to_string());
    };

    for (i, t) in flat.iter().enumerate() {
        let Flat::Id(text, line) = t else { continue };
        let name = resolved(text);
        let dot_before = i > 0 && matches!(flat[i - 1], Flat::P('.', _));
        let call_next = matches!(flat.get(i + 1), Some(Flat::Open(Delimiter::Parenthesis, _)));
        // `name::next` path step, if one follows.
        let path_next = match (flat.get(i + 1), flat.get(i + 2), flat.get(i + 3)) {
            (Some(Flat::P(':', true)), Some(Flat::P(':', _)), Some(Flat::Id(next, _))) => {
                Some((next.as_str(), i + 4))
            }
            _ => None,
        };

        if scope.l1 && (name == "HashMap" || name == "HashSet") {
            hit(&mut hits, "L1", *line, L1_MESSAGE);
        }
        if scope.l2 && text == "as" {
            if let Some(Flat::Id(ty, _)) = flat.get(i + 1) {
                if NUMERIC_TYPES.contains(&ty.as_str()) {
                    hit(&mut hits, "L2", *line, L2_MESSAGE);
                }
            }
        }
        if scope.l3 {
            // `.unwrap()` takes no argument; `.expect(…)` any.
            let empty_call = matches!(
                flat.get(i + 1),
                Some(Flat::Open(Delimiter::Parenthesis, true))
            );
            if dot_before && ((text == "unwrap" && empty_call) || (text == "expect" && call_next)) {
                hit(&mut hits, "L3", *line, L3_MESSAGE);
            }
            if matches!(
                text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            ) && matches!(flat.get(i + 1), Some(Flat::P('!', _)))
            {
                hit(&mut hits, "L3", *line, L3_MESSAGE);
            }
        }
        if scope.l4 {
            if L4_IDENTS.contains(&name.as_str()) {
                hit(&mut hits, "L4", *line, L4_MESSAGE);
            }
            // `Instant::now` / `rand::random` path sequences.
            if let Some((next, _)) = path_next {
                if (name == "Instant" && next == "now") || (name == "rand" && next == "random") {
                    hit(&mut hits, "L4", *line, L4_MESSAGE);
                }
            }
        }
        if scope.l5 && text == "loop" {
            hit(&mut hits, "L5", *line, L5_MESSAGE);
        }
        if scope.l6
            && matches!(
                text.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            )
            && matches!(flat.get(i + 1), Some(Flat::P('!', _)))
        {
            hit(&mut hits, "L6", *line, L6_MESSAGE);
        }
        if scope.l10 {
            let constructor = name == "VecDeque"
                && matches!(path_next, Some(("new" | "with_capacity", after))
                    if matches!(flat.get(after), Some(Flat::Open(Delimiter::Parenthesis, _))));
            let growth = dot_before && call_next && L10_GROWTH_METHODS.contains(&text.as_str());
            let channel = (name == "mpsc" && matches!(path_next, Some(("channel", _))))
                || text.contains("sync_channel")
                || text.contains("unbounded");
            if constructor || growth || channel {
                hit(&mut hits, "L10", *line, L10_MESSAGE);
            }
        }
    }

    // Rename/glob imports of banned APIs, flagged at the import.
    for u in &entry.uses {
        if u.in_test {
            continue;
        }
        let b = &u.binding;
        let last = b.path.last().map(String::as_str).unwrap_or("");
        if !(b.is_rename() || b.glob) {
            continue;
        }
        if scope.l4 {
            let time_glob = b.glob && b.path == ["std", "time"];
            let rand_random =
                last == "random" && b.path.first().map(String::as_str) == Some("rand");
            let rand_glob = b.glob && b.path == ["rand"];
            if L4_ALIAS_TARGETS.contains(&last) || time_glob || rand_random || rand_glob {
                hit(
                    &mut hits,
                    "L4",
                    b.line,
                    &format!(
                        "{} import of `{}`: wall clock / ambient randomness stays banned \
                         under any name in deterministic simulation crates, or allowlist \
                         with `// lint: nondeterministic-ok(reason)`",
                        if b.glob { "glob" } else { "renamed" },
                        b.path.join("::"),
                    ),
                );
            }
        }
        if scope.l1 {
            let coll_glob = b.glob && b.path == ["std", "collections"];
            if last == "HashMap" || last == "HashSet" || coll_glob {
                hit(
                    &mut hits,
                    "L1",
                    b.line,
                    &format!(
                        "{} import of `{}`: hash collections stay banned under any name \
                         in decision-path crates, or allowlist with \
                         `// lint: nondeterministic-ok(reason)`",
                        if b.glob { "glob" } else { "renamed" },
                        b.path.join("::"),
                    ),
                );
            }
        }
    }

    for ((rule, line), mut message) in hits {
        let marker = match rule {
            "L1" | "L4" => MarkerKind::NondeterministicOk,
            "L2" => MarkerKind::CastOk,
            "L3" => MarkerKind::PanicOk,
            "L5" => MarkerKind::L5Ok,
            "L6" => MarkerKind::L6Ok,
            _ => MarkerKind::L10Ok,
        };
        match entry.source.marker_for(marker, line) {
            // An `l10-ok` justification must name the bound, not just
            // assert safety.
            Some(m) if rule == "L10" && !m.reason.trim_start().starts_with("bound") => {
                message = format!(
                    "`l10-ok` reason must start with `bound:` naming the capacity \
                     that keeps this queue finite (got `{}`)",
                    m.reason
                );
            }
            Some(_) => continue,
            None => {}
        }
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

const L1_MESSAGE: &str =
    "hash collection in a decision path: iteration order is nondeterministic; \
     use BTreeMap/BTreeSet or an explicit sort, or allowlist with \
     `// lint: nondeterministic-ok(reason)`";

const L2_MESSAGE: &str = "bare `as` numeric cast in slot-arithmetic code: use \
     `taps_timeline::slots` helpers or `try_from`, or allowlist with \
     `// lint: cast-ok(reason)`";

const L3_MESSAGE: &str = "panic path in non-test library code: propagate a Result or document \
     the invariant with `// lint: panic-ok(reason)`";

const L4_MESSAGE: &str = "wall clock / ambient randomness in a deterministic simulation crate: \
     take the seed or timestamp as an input (workloads and fault plans \
     must derive from a seeded StdRng), or allowlist with \
     `// lint: nondeterministic-ok(reason)`";

const L5_MESSAGE: &str = "indefinite `loop` in control-plane code: retries must be bounded \
     (route them through `RetryPolicy::max_attempts`), or document the \
     termination bound with `// lint: l5-ok(reason)`";

const L6_MESSAGE: &str = "ad-hoc stdout/stderr printing in library code: emit a structured \
     `taps_obs::TraceEvent` through the crate's trace sink (or return the \
     data), or allowlist with `// lint: l6-ok(reason)`";

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
    fn rename_evasion_is_caught_at_import_and_call() {
        let src = "use std::time::Instant as T;\npub fn f() -> u64 {\n    let t = T::now();\n    t.elapsed().as_nanos() as u64\n}\n";
        let out = findings("crates/core/src/x.rs", src);
        let l4_lines: Vec<usize> = out
            .iter()
            .filter(|f| f.rule == "L4")
            .map(|f| f.line)
            .collect();
        assert_eq!(l4_lines, vec![1, 3], "import line and call line: {out:?}");
    }

    #[test]
    fn one_positive_per_rule_at_the_planted_line() {
        let src = "use std::collections::HashMap;\npub fn f() {\n    let m: HashMap<u64, u64> = HashMap::new();\n    let _ = m;\n    loop { break; }\n    println!(\"x\");\n}\n";
        let out = findings("crates/sdn/src/x.rs", src);
        assert_eq!(
            keys(&out),
            vec![("L1", 1), ("L1", 3), ("L5", 5), ("L6", 6)],
            "{out:?}"
        );

        let src = "pub fn f(n: usize, o: Option<u64>) -> u64 {\n    let t = std::time::Instant::now();\n    let _ = t;\n    o.unwrap() + n as u64\n}\n";
        let out = findings("crates/core/src/x.rs", src);
        assert_eq!(keys(&out), vec![("L2", 4), ("L3", 4), ("L4", 2)], "{out:?}");
    }

    #[test]
    fn needles_are_whole_identifiers() {
        let src = "pub struct NoHashMap;\npub fn do_unwrap() {}\npub fn f(x: u32) -> NoHashMap {\n    do_unwrap();\n    let _bias_u64 = x;\n    NoHashMap\n}\n";
        let out = findings("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn markers_and_test_regions_suppress() {
        let src = "pub fn f() {\n    // lint: panic-ok(checked above)\n    None::<u64>.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { None::<u64>.unwrap(); }\n}\n";
        let out = findings("crates/core/src/x.rs", src);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn reasonless_marker_is_reported() {
        let src = "pub fn f() {\n    // lint: panic-ok()\n    None::<u64>.unwrap();\n}\n";
        let out = findings("crates/core/src/x.rs", src);
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

    fn l6_findings(src: &str) -> Vec<Finding> {
        findings("crates/core/src/x.rs", src)
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
