//! Workspace item model for the AST analysis engine.
//!
//! [`Workspace::load`] walks every crate root (`src/lib.rs` plus each
//! `crates/*/src/lib.rs`), follows `mod x;` declarations through the
//! file tree, and flattens what it finds into:
//!
//! - a per-file [`FileEntry`] holding the whole-file token stream, the
//!   flattened `use` bindings (with their alias maps), and the file's
//!   [`SourceModel`] (allowlist markers, test-region map);
//! - a workspace-wide function table ([`FnInfo`]) with crate, module
//!   path, impl type, visibility, test status, signature, and body
//!   tokens — the substrate for the call graph (L7) and the float
//!   comparison rule (L8);
//! - `f64` evidence indexes: struct fields, function returns, and
//!   consts typed `f64`, used by L8 to type operands without full
//!   inference.
//!
//! `#[cfg(test)]`/`#[test]` items are loaded but flagged, so rules can
//! skip them with the same semantics as the source model's
//! brace-matched test regions. In-scope files that no `mod` declaration
//! reaches join through [`Workspace::add_orphan`]: tokens, `use`
//! bindings and markers, but no functions. [`Workspace::from_sources`]
//! builds the same model from in-memory fixtures for the engine's own
//! tests.

use crate::scan::SourceModel;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use syn::{Item, ItemFn, TokenTree, UseBinding, Visibility};

/// One loaded source file.
pub struct FileEntry {
    /// Workspace-relative path.
    pub rel: String,
    /// Comment-blanked lines, allowlist markers, test-region map.
    pub source: SourceModel,
    /// Whole-file token stream (macro bodies and struct fields included).
    pub tokens: Vec<TokenTree>,
    /// Flattened `use` bindings declared anywhere in the file, with
    /// whether the declaration sits in test-only code.
    pub uses: Vec<UseInfo>,
}

/// A `use` binding plus its test context.
pub struct UseInfo {
    pub binding: UseBinding,
    pub in_test: bool,
}

impl FileEntry {
    /// alias → full target path, for non-test renamed imports. The map
    /// is file-scoped: inline modules share their file's aliases, an
    /// over-approximation that errs toward reporting.
    pub fn rename_map(&self) -> BTreeMap<&str, &[String]> {
        let mut map = BTreeMap::new();
        for u in &self.uses {
            if !u.in_test && u.binding.is_rename() {
                map.insert(u.binding.alias.as_str(), u.binding.path.as_slice());
            }
        }
        map
    }
}

/// One function (free, inherent/trait method, or trait default).
pub struct FnInfo {
    pub crate_ident: String,
    pub rel: String,
    /// Module path inside the crate (file mods and inline mods).
    pub module: Vec<String>,
    pub name: String,
    /// Implementing type for methods, trait name for trait defaults.
    pub impl_ty: Option<String>,
    /// `pub` without restriction.
    pub is_pub: bool,
    /// `#[test]`, `#[cfg(test)]`, or nested inside either.
    pub is_test: bool,
    /// Flattened return type text.
    pub ret: Option<String>,
    /// Names of parameters whose declared type is `f64`.
    pub f64_params: Vec<String>,
    /// Body token stream (empty for bodiless trait declarations).
    pub body: Vec<TokenTree>,
    pub line: u32,
}

impl FnInfo {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.impl_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The parsed workspace.
pub struct Workspace {
    /// rel path → file entry, for every file reachable from a crate root
    /// plus the orphans added with [`Workspace::add_orphan`].
    pub files: BTreeMap<String, FileEntry>,
    pub fns: Vec<FnInfo>,
    /// Struct field names declared `f64` anywhere in the workspace.
    pub f64_fields: BTreeSet<String>,
    /// Function names returning `f64`.
    pub f64_fns: BTreeSet<String>,
    /// Const/static names typed `f64`.
    pub f64_consts: BTreeSet<String>,
    /// (rel, message) for files that failed to tokenize or resolve.
    pub errors: Vec<(String, String)>,
}

/// Maps a crate-root rel path to the crate identifier.
fn crate_ident_for_root(rel: &str) -> Option<String> {
    if rel == "src/lib.rs" {
        return Some("taps".to_string());
    }
    let rest = rel.strip_prefix("crates/")?;
    let dir = rest.strip_suffix("/src/lib.rs")?;
    if dir.contains('/') {
        return None;
    }
    Some(format!("taps_{}", dir.replace('-', "_")))
}

impl Workspace {
    /// Loads the workspace from disk, starting at each crate root.
    pub fn load(root: &Path) -> Workspace {
        let mut roots = Vec::new();
        if root.join("src/lib.rs").is_file() {
            roots.push("src/lib.rs".to_string());
        }
        if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
            for entry in entries.flatten() {
                let lib = entry.path().join("src/lib.rs");
                if lib.is_file() {
                    roots.push(format!(
                        "crates/{}/src/lib.rs",
                        entry.file_name().to_string_lossy()
                    ));
                }
            }
        }
        roots.sort();
        let provider = |rel: &str| std::fs::read_to_string(root.join(rel)).ok();
        Self::build(&roots, &provider)
    }

    /// Builds the model from in-memory `(rel, source)` fixtures; crate
    /// roots are the `src/lib.rs` entries among the keys, and in-scope
    /// fixtures no root reaches are added as orphans.
    pub fn from_sources(files: &[(&str, &str)]) -> Workspace {
        let map: BTreeMap<&str, &str> = files.iter().copied().collect();
        let mut roots: Vec<String> = map
            .keys()
            .filter(|k| crate_ident_for_root(k).is_some())
            .map(|k| k.to_string())
            .collect();
        roots.sort();
        let provider = |rel: &str| map.get(rel).map(|s| s.to_string());
        let mut ws = Self::build(&roots, &provider);
        for (rel, text) in &map {
            ws.add_orphan(rel, text);
        }
        ws
    }

    /// Adds an in-scope file that no `mod` declaration reaches (a dead
    /// file, a staged module), parsed on its own: the lexical rules and
    /// marker hygiene see it, its functions join no call graph. A no-op
    /// for files already loaded or out of lint scope.
    pub fn add_orphan(&mut self, rel: &str, text: &str) {
        if self.files.contains_key(rel) || crate::rules::scope_for(rel).is_none() {
            return;
        }
        let (entry, _items) = parse_file(&mut self.errors, rel, text);
        self.files.insert(rel.to_string(), entry);
    }

    fn build(roots: &[String], provider: &dyn Fn(&str) -> Option<String>) -> Workspace {
        let mut ws = Workspace {
            files: BTreeMap::new(),
            fns: Vec::new(),
            f64_fields: BTreeSet::new(),
            f64_fns: BTreeSet::new(),
            f64_consts: BTreeSet::new(),
            errors: Vec::new(),
        };
        for rel in roots {
            let Some(crate_ident) = crate_ident_for_root(rel) else {
                continue;
            };
            load_file(&mut ws, rel, &crate_ident, &[], provider);
        }
        ws
    }

    /// Function ids in `name`'s crate-wide method index.
    pub fn fns_named(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        self.fns
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.name == name)
            .map(|(i, _)| i)
    }
}

fn load_file(
    ws: &mut Workspace,
    rel: &str,
    crate_ident: &str,
    module: &[String],
    provider: &dyn Fn(&str) -> Option<String>,
) {
    if ws.files.contains_key(rel) {
        return;
    }
    let Some(text) = provider(rel) else {
        ws.errors
            .push((rel.to_string(), "module file not found".to_string()));
        return;
    };
    let (entry, items) = parse_file(&mut ws.errors, rel, &text);
    ws.files.insert(rel.to_string(), entry);
    let mut ctx = WalkCtx {
        rel,
        crate_ident,
        module: module.to_vec(),
        in_test: false,
        impl_ty: None,
        provider,
    };
    walk_items(ws, &items, &mut ctx);
}

/// Tokenizes one file into its entry (with `use` bindings) and its
/// top-level items. A tokenize failure is recorded in `errors` and
/// leaves the entry with an empty stream.
fn parse_file(errors: &mut Vec<(String, String)>, rel: &str, text: &str) -> (FileEntry, Vec<Item>) {
    let mut entry = FileEntry {
        rel: rel.to_string(),
        source: SourceModel::parse(text),
        tokens: Vec::new(),
        uses: Vec::new(),
    };
    let items = match syn::lexer::tokenize(text) {
        Ok(tokens) => {
            let items = syn::parse_items(&tokens);
            entry.tokens = tokens;
            items
        }
        Err(e) => {
            errors.push((rel.to_string(), e.to_string()));
            Vec::new()
        }
    };
    collect_uses(&items, false, &mut entry.uses);
    (entry, items)
}

/// Flattens the `use` bindings of `items` and of every inline module
/// below them, flagging the ones that sit in test-only code.
fn collect_uses(items: &[Item], in_test: bool, out: &mut Vec<UseInfo>) {
    for item in items {
        match item {
            Item::Use(u) => out.extend(u.bindings.iter().map(|b| UseInfo {
                binding: b.clone(),
                in_test,
            })),
            Item::Mod(m) => {
                if let Some(inner) = &m.content {
                    let test = in_test || m.attrs.iter().any(|a| a.is_cfg_test());
                    collect_uses(inner, test, out);
                }
            }
            _ => {}
        }
    }
}

struct WalkCtx<'a> {
    rel: &'a str,
    crate_ident: &'a str,
    module: Vec<String>,
    in_test: bool,
    impl_ty: Option<String>,
    provider: &'a dyn Fn(&str) -> Option<String>,
}

/// Directory that child `mod x;` files of `rel` live in.
fn child_dir(rel: &str) -> String {
    let dir = rel.rsplit_once('/').map(|(d, _)| d).unwrap_or("");
    let file = rel.rsplit_once('/').map(|(_, f)| f).unwrap_or(rel);
    if file == "lib.rs" || file == "mod.rs" || file == "main.rs" {
        dir.to_string()
    } else {
        format!("{dir}/{}", file.trim_end_matches(".rs"))
    }
}

fn walk_items(ws: &mut Workspace, items: &[Item], ctx: &mut WalkCtx<'_>) {
    for item in items {
        match item {
            Item::Fn(f) => record_fn(ws, f, ctx),
            Item::Mod(m) => {
                let test = ctx.in_test || m.attrs.iter().any(|a| a.is_cfg_test());
                match &m.content {
                    Some(inner) => {
                        let saved_test = ctx.in_test;
                        ctx.in_test = test;
                        ctx.module.push(m.ident.clone());
                        walk_items(ws, inner, ctx);
                        ctx.module.pop();
                        ctx.in_test = saved_test;
                    }
                    None => {
                        // Out-of-line module: resolve `x.rs` / `x/mod.rs`
                        // next to this file. Test-only file modules are
                        // out of analysis scope entirely.
                        if test {
                            continue;
                        }
                        let dir = child_dir(ctx.rel);
                        let flat = format!("{dir}/{}.rs", m.ident);
                        let nested = format!("{dir}/{}/mod.rs", m.ident);
                        let child = if (ctx.provider)(&flat).is_some() {
                            flat
                        } else {
                            nested
                        };
                        let mut module = ctx.module.clone();
                        module.push(m.ident.clone());
                        load_file(ws, &child, ctx.crate_ident, &module, ctx.provider);
                    }
                }
            }
            Item::Impl(im) => {
                let saved = ctx.impl_ty.take();
                ctx.impl_ty = Some(im.self_ty.clone());
                walk_items(ws, &im.items, ctx);
                ctx.impl_ty = saved;
            }
            Item::Trait(tr) => {
                let saved = ctx.impl_ty.take();
                ctx.impl_ty = Some(tr.ident.clone());
                walk_items(ws, &tr.items, ctx);
                ctx.impl_ty = saved;
            }
            Item::Struct(s) => {
                if !ctx.in_test {
                    for field in &s.fields {
                        if field.ty == "f64" {
                            ws.f64_fields.insert(field.name.clone());
                        }
                    }
                }
            }
            Item::Const(c) => {
                if !ctx.in_test && c.ty == "f64" {
                    ws.f64_consts.insert(c.ident.clone());
                }
            }
            Item::Use(_) | Item::Enum(_) | Item::Macro(_) | Item::Verbatim(_) => {}
        }
    }
}

fn record_fn(ws: &mut Workspace, f: &ItemFn, ctx: &mut WalkCtx<'_>) {
    let is_test = ctx.in_test || f.attrs.iter().any(|a| a.is_test() || a.is_cfg_test());
    if !is_test && f.sig.output.as_deref() == Some("f64") {
        ws.f64_fns.insert(f.sig.ident.text.clone());
    }
    let f64_params = f
        .sig
        .inputs
        .iter()
        .filter(|a| {
            let ty = a.ty.trim_start_matches('&').trim_start_matches("mut");
            ty.trim() == "f64"
        })
        .filter_map(|a| a.name.clone())
        .collect();
    ws.fns.push(FnInfo {
        crate_ident: ctx.crate_ident.to_string(),
        rel: ctx.rel.to_string(),
        module: ctx.module.clone(),
        name: f.sig.ident.text.clone(),
        impl_ty: ctx.impl_ty.clone(),
        is_pub: f.vis == Visibility::Public,
        is_test,
        ret: f.sig.output.clone(),
        f64_params,
        body: f.block.clone(),
        line: f.line,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_mod_tree_and_indexes() {
        let ws = Workspace::from_sources(&[
            (
                "crates/core/src/lib.rs",
                "pub mod alloc;\npub const EPS: f64 = 1e-9;\npub struct S { pub completion: f64, pub n: u64 }\n",
            ),
            (
                "crates/core/src/alloc.rs",
                "impl S {\n    pub fn best(&self) -> f64 { 0.0 }\n    fn inner(&self) {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
            ),
        ]);
        assert!(ws.errors.is_empty(), "{:?}", ws.errors);
        assert_eq!(ws.files.len(), 2);
        assert!(ws.f64_consts.contains("EPS"));
        assert!(ws.f64_fields.contains("completion"));
        assert!(!ws.f64_fields.contains("n"));
        assert!(ws.f64_fns.contains("best"));

        let best = &ws.fns[ws.fns_named("best").next().unwrap()];
        assert_eq!(best.crate_ident, "taps_core");
        assert_eq!(best.impl_ty.as_deref(), Some("S"));
        assert!(best.is_pub && !best.is_test);
        let t = &ws.fns[ws.fns_named("t").next().unwrap()];
        assert!(t.is_test);
        assert_eq!(t.module, vec!["alloc".to_string(), "tests".to_string()]);
    }

    #[test]
    fn rename_map_skips_test_uses() {
        let ws = Workspace::from_sources(&[(
            "crates/core/src/lib.rs",
            "use std::time::Instant as T;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap as M;\n}\n",
        )]);
        let entry = &ws.files["crates/core/src/lib.rs"];
        let map = entry.rename_map();
        assert_eq!(
            map.get("T").copied(),
            Some(["std", "time", "Instant"].map(String::from).as_slice())
        );
        assert!(!map.contains_key("M"), "test-only rename must not leak");
    }

    #[test]
    fn missing_module_file_is_an_error() {
        let ws = Workspace::from_sources(&[("crates/core/src/lib.rs", "mod ghost;\n")]);
        assert_eq!(ws.errors.len(), 1);
        assert!(ws.errors[0].0.contains("ghost"));
    }
}
