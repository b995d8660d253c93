//! The reach census: which `pub` items in `crates/*/src` and which
//! `[dependencies]` edges in `crates/*/Cargo.toml` no production code
//! uses. The gate is the root test `tests/reach.rs`: it fails on any of
//! them that its exemption table does not name with a reason, and on any
//! exemption that names something gone or reached.
//!
//! Production code is `crates/*/src` (binaries included), the root
//! package's `src/` and `examples/`, and `cio_benchmark/src`. Test code is
//! `tests/`, `crates/*/tests` and every `#[cfg(test)]` item. Both are read
//! through [`crate::tcb::production_text`]'s scanner, so a comment or a string
//! names nothing. A reference is the item's name as an identifier in a
//! package that can see the item: its own, one that depends on it
//! (directly or not), the root package or the benchmark. A definition is
//! not a reference, nor is a `pub use` re-export. Names are matched, not
//! resolved: a collision can hide an unreached item, never invent one.
//! Items are keyed `module::name`, the module being the file's (or its
//! directory's, for a `mod.rs`).

use crate::tcb::{code_text, count_lines, item_len, production_text, rust_files};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The item kinds the census counts, then the other words that introduce
/// a definition's name.
const DEFINES: &str = "fn struct enum const static type trait mod union";

type Counts = HashMap<String, u64>;

/// One package: its name, its dependencies, and the identifiers of its
/// production code (`[0]`) and of all its code (`[1]`), counted.
#[derive(Default)]
struct Package(String, Vec<String>, [Counts; 2]);

impl Package {
    /// Reads every file under `dir` as production code, returning each
    /// one's production text, or as test code.
    fn read(&mut self, dir: &Path, production: bool) -> Vec<(PathBuf, String)> {
        let mut texts = Vec::new();
        for file in rust_files(dir) {
            let src = std::fs::read_to_string(&file).unwrap_or_default();
            let prod = production_text(&src);
            tally(&mut self.2[0], if production { &prod } else { "" });
            tally(&mut self.2[1], &code_text(&src));
            texts.push((file, prod));
        }
        texts
    }
}

/// What the census found.
#[derive(Debug, Default)]
pub struct Census {
    /// One line per unreached item or unused edge: package, key, place,
    /// lines by [`count_lines`], and whether only tests name it.
    pub report: Vec<String>,
    /// Every item's `module::name` key and every edge's
    /// `"dependent -> dependency"`.
    pub known: Vec<String>,
    /// The keys and edges that no production code uses.
    pub unreached: Vec<String>,
}

/// Runs the census over the workspace at `root`.
pub fn census(root: &Path) -> Census {
    let (mut packages, mut items) = (Vec::new(), Vec::new());
    let dirs = std::fs::read_dir(root.join("crates")).into_iter().flatten();
    for dir in dirs.flatten().map(|e| e.path()) {
        let mut pkg = manifest(&dir.join("Cargo.toml"));
        for (file, prod) in pkg.read(&dir.join("src"), true) {
            items.extend(pub_items(&prod, &file, root).map(|it| (packages.len(), it)));
        }
        pkg.read(&dir.join("tests"), false);
        packages.push(pkg);
    }
    // The root package and the benchmark can name every crate's items.
    let crates = packages.len();
    let everyone: Vec<String> = packages.iter().map(|p| p.0.clone()).collect();
    for dirs in [&["src", "examples", "tests"][..], &["cio_benchmark/src"]] {
        let mut pkg = Package::default();
        pkg.1.clone_from(&everyone);
        for dir in dirs {
            pkg.read(&root.join(dir), *dir != "tests");
        }
        packages.push(pkg);
    }

    let mut found = Census::default();
    for (p, (key, at)) in items {
        let name = key.rsplit("::").next().unwrap_or("");
        let seen = visible_from(&packages, p);
        let refs = |code: usize| seen.iter().any(|&q| packages[q].2[code].contains_key(name));
        if !refs(0) {
            let class = if refs(1) { "only tests" } else { "none" };
            let package = &packages[p].0;
            found.report.push(format!("{package} {key} {at}, {class}"));
            found.unreached.push(key.clone());
        }
        found.known.push(key);
    }
    for Package(name, deps, [prod, _]) in &packages[..crates] {
        for dep in deps {
            found.known.push(format!("{name} -> {dep}"));
            if !prod.contains_key(&dep.replace('-', "_")) {
                found.unreached.push(format!("{name} -> {dep}"));
                found.report.push(format!("unused edge {name} -> {dep}"));
            }
        }
    }
    found.report.sort();
    found
}

/// The package that `path`, a `Cargo.toml`, declares: its name and its
/// `[dependencies]` keys.
fn manifest(path: &Path) -> Package {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let (mut pkg, mut table) = (Package::default(), "");
    for line in text.lines() {
        match (line.strip_prefix("name = "), line.split_once(['.', ' '])) {
            _ if line.starts_with('[') => table = line,
            (Some(name), _) if table == "[package]" => pkg.0 = name.trim_matches('"').into(),
            (_, Some((dep, _))) if table == "[dependencies]" && !dep.starts_with('#') => {
                pkg.1.push(dep.into())
            }
            _ => {}
        }
    }
    pkg
}

/// The packages whose code can name package `p`'s items: `p` and every
/// package that depends on it, directly or not.
fn visible_from(packages: &[Package], p: usize) -> Vec<usize> {
    let mut seen = vec![p];
    let mut i = 0;
    while let Some(&q) = seen.get(i) {
        for (r, pkg) in packages.iter().enumerate() {
            if pkg.1.contains(&packages[q].0) && !seen.contains(&r) {
                seen.push(r);
            }
        }
        i += 1;
    }
    seen
}

/// The identifiers of `code`, each with its byte offset.
fn words(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let split = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
    let words = split.filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'));
    words.map(move |w| (w.as_ptr() as usize - code.as_ptr() as usize, w))
}

/// Counts the identifiers of `code` that refer to something: not the name
/// a definition introduces, and nothing in a `pub use` re-export.
fn tally(counts: &mut Counts, code: &str) {
    let mut code = code.to_string();
    while let Some(at) = code.find("pub use ") {
        let end = code[at..].find(';').map_or(code.len(), |e| at + e);
        code.replace_range(at..end, "");
    }
    let mut prev = "";
    for (_, w) in words(&code) {
        if !DEFINES.split(' ').any(|d| d == prev) {
            *counts.entry(w.to_string()).or_default() += 1;
        }
        prev = w;
    }
}

/// The `pub` items that `prod`, the production text of `file`, defines:
/// each one's `module::name` key, and its place and lines.
fn pub_items(prod: &str, file: &Path, root: &Path) -> impl Iterator<Item = (String, String)> {
    let place = file.strip_prefix(root).unwrap_or(file).to_string_lossy();
    // A `mod.rs` file is named by its directory.
    let stem = place.trim_end_matches("/mod.rs").trim_end_matches(".rs");
    let module = stem.rsplit('/').next().unwrap_or(stem);
    let words: Vec<(usize, &str)> = words(prod).collect();
    let mut out = Vec::new();
    for (k, &(start, w)) in words.iter().enumerate() {
        // `pub const fn` is a function; `pub(crate)` is not `pub`.
        let kw = k + 1 + usize::from(words.get(k + 2).is_some_and(|w| w.1 == "fn"));
        let (Some(&(kw_at, kw)), Some(&(_, name))) = (words.get(kw), words.get(kw + 1)) else {
            continue;
        };
        let counted = DEFINES.split(' ').take(7).any(|d| d == kw);
        if w == "pub" && !prod[start + 3..].starts_with('(') && counted {
            let line = prod[..start].matches('\n').count() + 1;
            let loc = count_lines(&prod[start..kw_at + item_len(&prod[kw_at..])]);
            let key = format!("{module}::{name}");
            out.push((key, format!("{place}:{line} {loc} LoC")));
        }
    }
    out.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definitions_and_reexports_are_not_references() {
        let mut counts = Counts::new();
        tally(
            &mut counts,
            "pub use m::Thing;\npub fn used() {}\nfn caller() { used(); }\n",
        );
        assert_eq!(counts.get("Thing"), None);
        assert_eq!(counts.get("used"), Some(&1));
        assert_eq!(counts.get("caller"), None);
    }

    #[test]
    fn pub_items_are_keyed_by_module_with_their_place_and_lines() {
        let prod = "pub const A: u8 = 1;\nimpl Ring {\n    pub fn run(&self) {\n        go();\n    }\n    \
                    pub(crate) fn hidden() {}\n}\npub const fn b() {}\n";
        let (file, root) = (Path::new("/w/crates/x/src/ring.rs"), Path::new("/w"));
        let keys: Vec<_> = pub_items(prod, file, root).collect();
        let want = [
            ("ring::A", ":1 1"),
            ("ring::run", ":3 3"),
            ("ring::b", ":8 1"),
        ];
        let want = want.map(|(k, at)| (k.to_string(), format!("crates/x/src/ring.rs{at} LoC")));
        assert_eq!(keys, want);
    }
}
