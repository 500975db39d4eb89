//! End-to-end tests for the lint pass (`cargo xtask lint`): mutation
//! tests that plant one synthetic violation per item-structure rule
//! (L7, L8) and assert it is reported at exactly the right file and
//! line (the lexical rules' fixtures sit beside them in
//! `ast/lexical.rs`), marker suppression + staleness round-trips, and
//! an in-scope file no `mod` declaration reaches.

use std::path::Path;
use xtask::lint_sources;
use xtask::rules::Finding;

fn keys(findings: &[Finding], rule: &str) -> Vec<(String, usize)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.clone(), f.line))
        .collect()
}

/// An in-scope file that no `mod` declaration reaches still gets the
/// lexical rules and marker hygiene: its bare `loop` and its stale
/// marker are both reported.
#[test]
fn a_file_outside_the_module_tree_is_still_linted() {
    let orphan = "pub fn f() {\n\
                  \x20   // lint: l10-ok(bound: nothing grows here any more)\n\
                  \x20   loop { break; }\n\
                  }\n";
    let rel = "crates/service/src/orphan.rs";
    let out = lint_sources(&[
        ("crates/service/src/lib.rs", "pub fn ok() {}\n"),
        (rel, orphan),
    ]);
    assert_eq!(keys(&out, "L5"), vec![(rel.to_string(), 3)], "{out:?}");
    assert_eq!(keys(&out, "marker"), vec![(rel.to_string(), 2)], "{out:?}");
    assert_eq!(out.len(), 2, "{out:?}");
}

/// L7 mutation: a public entry mutates occupancy with no validate gate
/// anywhere downstream — flagged at the entry's `fn` line.
#[test]
fn l7_mutation_is_flagged_at_the_entry_line() {
    let src = "pub struct S { occ: u64 }\n\
               impl S {\n\
               \x20   pub fn sneak(&mut self) { self.occ.insert_set(1); }\n\
               }\n";
    let out = lint_sources(&[("crates/core/src/lib.rs", src)]);
    assert_eq!(
        keys(&out, "L7"),
        vec![("crates/core/src/lib.rs".to_string(), 3)],
        "{out:?}"
    );
}

/// An `l7-ok` marker suppresses exactly that finding and counts as
/// used; the same marker above a non-violating entry is stale.
#[test]
fn l7_marker_suppresses_and_goes_stale() {
    let suppressed = "pub struct S { occ: u64 }\n\
                      impl S {\n\
                      \x20   // lint: l7-ok(rollback restores a previously validated state)\n\
                      \x20   pub fn sneak(&mut self) { self.occ.remove_set(1); }\n\
                      }\n";
    let out = lint_sources(&[("crates/core/src/lib.rs", suppressed)]);
    assert!(out.is_empty(), "{out:?}");

    let stale = "pub struct S { occ: u64 }\n\
                 impl S {\n\
                 \x20   // lint: l7-ok(nothing here mutates occupancy any more)\n\
                 \x20   pub fn noop(&mut self) { let _ = self; }\n\
                 }\n";
    let out = lint_sources(&[("crates/core/src/lib.rs", stale)]);
    assert_eq!(
        keys(&out, "marker"),
        vec![("crates/core/src/lib.rs".to_string(), 3)],
        "{out:?}"
    );
    assert!(out[0].message.contains("stale"), "{out:?}");
}

/// L8 mutation: a bare `==` between f64 locals in a decision-path
/// crate — flagged at the comparison line.
#[test]
fn l8_mutation_is_flagged_at_the_comparison_line() {
    let src = "pub fn eq(a: f64, b: f64) -> bool {\n\
               \x20   a == b\n\
               }\n";
    let out = lint_sources(&[("crates/core/src/lib.rs", src)]);
    assert_eq!(
        keys(&out, "L8"),
        vec![("crates/core/src/lib.rs".to_string(), 2)],
        "{out:?}"
    );
}

#[test]
fn l8_marker_suppresses_and_goes_stale() {
    let suppressed = "pub fn eq(a: f64, b: f64) -> bool {\n\
                      \x20   // lint: l8-ok(exact equality of a copied constant is the contract)\n\
                      \x20   a == b\n\
                      }\n";
    let out = lint_sources(&[("crates/core/src/lib.rs", suppressed)]);
    assert!(out.is_empty(), "{out:?}");

    // The violation was fixed with total_cmp but the marker remained.
    let stale = "pub fn eq(a: f64, b: f64) -> bool {\n\
                 \x20   // lint: l8-ok(exact equality of a copied constant is the contract)\n\
                 \x20   a.total_cmp(&b).is_eq()\n\
                 }\n";
    let out = lint_sources(&[("crates/core/src/lib.rs", stale)]);
    assert_eq!(
        keys(&out, "marker"),
        vec![("crates/core/src/lib.rs".to_string(), 2)],
        "{out:?}"
    );
    assert!(out[0].message.contains("stale"), "{out:?}");
}

/// The acceptance bar the CI `lint` job enforces: the real workspace
/// is clean — zero unsuppressed findings, zero stale markers.
#[test]
fn real_workspace_is_clean() {
    // Integration tests run with the package directory as CWD.
    let root = Path::new("..");
    assert!(
        root.join("Cargo.toml").exists(),
        "expected to run from xtask/ inside the workspace"
    );
    let out = xtask::lint_workspace(root).expect("workspace lint walks the source tree");
    assert!(
        out.is_empty(),
        "workspace must stay lint-clean; run `cargo xtask lint`:\n{}",
        out.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
