//! Comment/string-aware Rust source model for the repo-specific lints.
//!
//! The rules match on the `compat/syn` token stream, which carries no
//! comments; this light-weight *source model* is exact about the three
//! things they need beside it:
//!
//! 1. **code vs. non-code** — string literals, char literals, raw
//!    strings, and all comment forms are blanked out so the test-region
//!    scan below never matches inside them;
//! 2. **test vs. library code** — `#[cfg(test)]` items (including whole
//!    `mod tests { .. }` blocks) and `#[test]` functions are tracked by
//!    brace matching so rules only fire on non-test library code;
//! 3. **allowlist markers** — `// lint: <rule>-ok(reason)` comments are
//!    collected per line; a marker suppresses findings on its own line or
//!    on the next line, and markers that suppress nothing are themselves
//!    reported as stale.

use std::fmt;

/// Allowlist marker kinds, written as `// lint: <name>(reason)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkerKind {
    /// `l5-ok` — suppresses L5 (indefinite `loop` in control-plane code);
    /// the reason must state the termination/retry bound.
    L5Ok,
    /// `l7-ok` — suppresses L7 (schedule-mutating public entry point
    /// with no validate-gated commit on its call paths); the reason must
    /// state why the mutation needs no commit-time validation.
    L7Ok,
    /// `l8-ok` — suppresses L8 (bare float comparison in decision-path
    /// code; completion/priority orderings go through `total_cmp` or the
    /// EPS helpers).
    L8Ok,
    /// `l10-ok` — suppresses L10 (unbounded channel constructors or
    /// queue growth in service request paths); the reason must start
    /// with `bound:` naming the capacity that keeps the site finite.
    L10Ok,
}

impl MarkerKind {
    pub fn name(self) -> &'static str {
        match self {
            MarkerKind::L5Ok => "l5-ok",
            MarkerKind::L7Ok => "l7-ok",
            MarkerKind::L8Ok => "l8-ok",
            MarkerKind::L10Ok => "l10-ok",
        }
    }
}

impl fmt::Display for MarkerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One allowlist marker found in a comment.
#[derive(Clone, Debug)]
pub struct Marker {
    pub kind: MarkerKind,
    /// 1-based line the marker comment sits on.
    pub line: usize,
    /// The justification inside the parentheses.
    pub reason: String,
    /// Whether any finding was suppressed by this marker (set by rules).
    pub used: std::cell::Cell<bool>,
}

/// A parsed source file ready for rule matching.
pub struct SourceModel {
    /// Original text, split into lines (no trailing newline).
    pub raw_lines: Vec<String>,
    /// Same line structure with comments and literal contents blanked.
    pub code_lines: Vec<String>,
    /// `is_test[i]` — 1-based-line `i+1` is inside a `#[cfg(test)]` item
    /// or a `#[test]` function.
    pub is_test: Vec<bool>,
    /// All allowlist markers, in line order.
    pub markers: Vec<Marker>,
}

impl SourceModel {
    /// Parses source text.
    pub fn parse(text: &str) -> SourceModel {
        let (code, comments) = blank_non_code(text);
        let raw_lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let code_lines: Vec<String> = code.lines().map(|l| l.to_string()).collect();
        let is_test = mark_test_regions(&code_lines);
        let markers = parse_markers(&comments);
        SourceModel {
            raw_lines,
            code_lines,
            is_test,
            markers,
        }
    }

    /// True when 1-based `line` is inside test-only code.
    pub fn line_is_test(&self, line: usize) -> bool {
        self.is_test
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Finds a marker of `kind` covering 1-based `line` (same line
    /// preferred, else the line directly above) and records it as used.
    pub fn marker_for(&self, kind: MarkerKind, line: usize) -> Option<&Marker> {
        let m = self
            .markers
            .iter()
            .find(|m| m.kind == kind && m.line == line)
            .or_else(|| {
                self.markers
                    .iter()
                    .find(|m| m.kind == kind && m.line + 1 == line)
            })?;
        m.used.set(true);
        Some(m)
    }
}

/// Replaces the contents of comments, string literals, char literals, and
/// raw strings with spaces (newlines preserved), returning the blanked
/// text plus the extracted comment text per line (for marker parsing).
fn blank_non_code(text: &str) -> (String, Vec<String>) {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let n_lines = text.lines().count().max(1);
    let mut comments: Vec<String> = vec![String::new(); n_lines + 1];
    let mut line = 0usize;

    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                out.push('\n');
                line += 1;
                i += 1;
            }
            '/' if next == Some('/') => {
                // Line comment: capture text, blank it.
                while i < chars.len() && chars[i] != '\n' {
                    if let Some(buf) = comments.get_mut(line) {
                        buf.push(chars[i]);
                    }
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                // Block comment (nestable).
                let mut depth = 0usize;
                while i < chars.len() {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('*') {
                        depth += 1;
                        out.push_str("  ");
                        comments[line].push_str("/*");
                        i += 2;
                    } else if c == '*' && next == Some('/') {
                        depth -= 1;
                        out.push_str("  ");
                        comments[line].push_str("*/");
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if c == '\n' {
                            out.push('\n');
                            line += 1;
                        } else {
                            out.push(' ');
                            if let Some(buf) = comments.get_mut(line) {
                                buf.push(c);
                            }
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                // Plain string literal.
                out.push('"');
                i += 1;
                while i < chars.len() {
                    let c = chars[i];
                    if c == '\\' {
                        out.push_str("  ");
                        i += 2;
                    } else if c == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        if c == '\n' {
                            out.push('\n');
                            line += 1;
                        } else {
                            out.push(' ');
                        }
                        i += 1;
                    }
                }
            }
            'r' | 'b' if is_raw_string_start(&chars, i) => {
                // Raw string r"..." / r#"..."# / br#"..."# etc.
                let start = i;
                while chars.get(i) == Some(&'b') || chars.get(i) == Some(&'r') {
                    out.push(chars[i]);
                    i += 1;
                }
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    hashes += 1;
                    out.push('#');
                    i += 1;
                }
                debug_assert!(chars.get(i) == Some(&'"'), "raw string at {start}");
                out.push('"');
                i += 1;
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if chars.get(i + 1 + k) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            out.push('"');
                            for _ in 0..hashes {
                                out.push('#');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if chars[i] == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs. lifetime/loop label.
                if next == Some('\\') {
                    // Escaped char literal '\n', '\u{..}', ...
                    out.push('\'');
                    i += 1;
                    while i < chars.len() && chars[i] != '\'' {
                        out.push(' ');
                        i += 1;
                    }
                    if i < chars.len() {
                        out.push('\'');
                        i += 1;
                    }
                } else if chars.get(i + 2) == Some(&'\'') && next.is_some() {
                    // One-char literal 'x'.
                    out.push_str("'.'");
                    i += 3;
                } else {
                    // Lifetime or label: leave as code.
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    let per_line_comments = comments.into_iter().take(n_lines).collect();
    (out, per_line_comments)
}

/// True when `chars[i]` starts a raw-string prefix (`r"`, `r#`, `br"`,
/// `br#`) that is not just part of an identifier like `for` or `barr`.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Marks lines covered by `#[cfg(test)]` items and `#[test]` functions.
fn mark_test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut is_test = vec![false; code_lines.len()];
    for (idx, l) in code_lines.iter().enumerate() {
        let trimmed = l.trim_start();
        let is_attr = trimmed.starts_with("#[")
            && (trimmed.contains("cfg(test") || trimmed.contains("#[test]"));
        if !is_attr {
            continue;
        }
        // The attribute applies to the next item: walk forward to the
        // item's opening `{` (or a terminating `;` for e.g. `use`
        // declarations) and mark through the matching close brace.
        let mut brace = 0i32;
        let mut nested = 0i32; // parens/brackets, so `[u8; 3]` isn't a terminator
        let mut opened = false;
        'item: for (j, line) in code_lines.iter().enumerate().skip(idx) {
            is_test[j] = true;
            for ch in line.chars() {
                match ch {
                    '{' => {
                        brace += 1;
                        opened = true;
                    }
                    '}' => {
                        brace -= 1;
                        if opened && brace == 0 {
                            break 'item;
                        }
                    }
                    '(' | '[' => nested += 1,
                    ')' | ']' => nested -= 1,
                    ';' if !opened && nested == 0 => break 'item,
                    _ => {}
                }
            }
        }
    }
    is_test
}

/// Extracts `lint: <name>(reason)` markers from per-line comment text.
fn parse_markers(comments: &[String]) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (idx, text) in comments.iter().enumerate() {
        let Some(pos) = text.find("lint:") else {
            continue;
        };
        let rest = text[pos + 5..].trim_start();
        let kind = if rest.starts_with("l5-ok") {
            MarkerKind::L5Ok
        } else if rest.starts_with("l7-ok") {
            MarkerKind::L7Ok
        } else if rest.starts_with("l8-ok") {
            MarkerKind::L8Ok
        } else if rest.starts_with("l10-ok") {
            MarkerKind::L10Ok
        } else {
            continue;
        };
        let reason = rest
            .find('(')
            .and_then(|open| {
                rest[open + 1..]
                    .find(')')
                    .map(|close| &rest[open + 1..open + 1 + close])
            })
            .unwrap_or("")
            .trim()
            .to_string();
        markers.push(Marker {
            kind,
            line: idx + 1,
            reason,
            used: std::cell::Cell::new(false),
        });
    }
    markers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> SourceModel {
        SourceModel::parse(src)
    }

    #[test]
    fn blanks_strings_and_comments() {
        let m = model("let x = \"HashMap\"; // HashMap here\nlet y = HashMap::new();\n");
        assert!(!m.code_lines[0].contains("HashMap"));
        assert!(m.code_lines[1].contains("HashMap"));
    }

    #[test]
    fn blanks_raw_strings_and_char_literals() {
        let m =
            model("let s = r#\"unwrap() as u64\"#;\nlet c = 'a';\nlet lt: &'static str = \"x\";\n");
        assert!(!m.code_lines[0].contains("unwrap"));
        assert!(!m.code_lines[0].contains("as u64"));
        assert!(m.code_lines[2].contains("'static"));
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let m = model(src);
        assert!(!m.line_is_test(1));
        assert!(m.line_is_test(2));
        assert!(m.line_is_test(4));
        assert!(!m.line_is_test(6));
    }

    #[test]
    fn markers_parse_with_reasons() {
        let m = model("// lint: l5-ok(terminates: the queue drains)\nloop { break; }\n");
        let mk = m.marker_for(MarkerKind::L5Ok, 2).expect("marker");
        assert_eq!(mk.reason, "terminates: the queue drains");
        assert!(mk.used.get());
    }
}
