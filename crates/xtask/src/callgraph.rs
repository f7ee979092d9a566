//! Workspace call-graph builder and reachability queries for the
//! interprocedural rules (L8/hot-alloc, L9/sans-io, L10/lock-order,
//! L11/taint-determinism).
//!
//! Resolution is by function name, scoped to the calling crate plus its
//! transitive workspace dependencies (parsed from each crate's
//! `Cargo.toml`), with two precision refinements:
//!
//! * `Type::name(…)` calls only bind to functions in an `impl Type`
//!   block (a capitalized or primitive-type qualifier that matches
//!   nothing binds to nothing — it names a std or external type, so
//!   `u64::from(…)` reaches an `impl From<…> for u64` and no other
//!   `from`);
//! * `self.name(…)` calls prefer functions sharing the caller's impl
//!   type, which keeps same-named methods of sibling implementations
//!   (e.g. an interned graph and its baseline twin) apart.
//!
//! Everything else is an over-approximation: an unresolvable method
//! call on an unknown receiver binds to every same-named candidate in
//! scope. That direction of error makes L8/L9 conservative (they can
//! demand an annotation, never miss through a resolved edge).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{CallSite, FileIndex, FnItem};
use crate::{read_file, LintError};

/// Primitive type names: as a call qualifier they name a type, not a
/// module, so they resolve like a capitalized one.
const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "str",
];

/// Transitive workspace-dependency map: crate directory name → the set
/// of crate directory names its sources may call into (itself included).
#[derive(Debug, Default)]
pub struct DepMap {
    deps: BTreeMap<String, BTreeSet<String>>,
}

impl DepMap {
    /// Parses each listed crate's `Cargo.toml` and closes the
    /// dependency relation transitively.
    ///
    /// # Errors
    /// Propagates manifest read failures.
    pub fn load(crates: &[(String, std::path::PathBuf)]) -> Result<DepMap, LintError> {
        // Package name → directory name, so `bpush-sgraph = { … }`
        // resolves to the `sgraph` directory.
        let mut pkg_to_dir: BTreeMap<String, String> = BTreeMap::new();
        let mut manifests: Vec<(String, String)> = Vec::new();
        for (dir, path) in crates {
            let text = read_file(&path.join("Cargo.toml"))?;
            if let Some(pkg) = package_name(&text) {
                pkg_to_dir.insert(pkg, dir.clone());
            }
            pkg_to_dir.insert(dir.clone(), dir.clone());
            manifests.push((dir.clone(), text));
        }
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (dir, text) in &manifests {
            let mut set = BTreeSet::new();
            set.insert(dir.clone());
            for dep in dependency_names(text) {
                if let Some(d) = pkg_to_dir.get(&dep) {
                    set.insert(d.clone());
                }
            }
            direct.insert(dir.clone(), set);
        }
        // Transitive closure (the workspace graph is tiny).
        let mut changed = true;
        while changed {
            changed = false;
            let snapshot = direct.clone();
            for set in direct.values_mut() {
                let mut add = BTreeSet::new();
                for dep in set.iter() {
                    if let Some(transitive) = snapshot.get(dep) {
                        for t in transitive {
                            if !set.contains(t) {
                                add.insert(t.clone());
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    set.extend(add);
                    changed = true;
                }
            }
        }
        Ok(DepMap { deps: direct })
    }

    /// Whether sources in `from` may call into `to`.
    #[must_use]
    pub fn reaches(&self, from: &str, to: &str) -> bool {
        from == to || self.deps.get(from).is_some_and(|s| s.contains(to))
    }
}

/// Extracts `name = "…"` from the `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Dependency package names from `[dependencies]` (and
/// `[dev-dependencies]`, so test-only crates still scope), honoring
/// `package = "…"` renames.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let mut name = key.trim().trim_matches('"').to_string();
        if let Some(pos) = value.find("package") {
            let rest = &value[pos + "package".len()..];
            if let Some(eq) = rest.find('=') {
                let quoted = rest[eq + 1..].trim();
                if let Some(stripped) = quoted.strip_prefix('"') {
                    if let Some(end) = stripped.find('"') {
                        name = stripped[..end].to_string();
                    }
                }
            }
        }
        out.push(name);
    }
    out
}

/// A flattened reference to one indexed function.
#[derive(Debug, Clone, Copy)]
pub struct FnId(pub usize);

/// The workspace call graph over every indexed function.
pub struct CallGraph<'a> {
    files: &'a [FileIndex],
    /// Flattened `(file index, fn index)` per global id.
    flat: Vec<(usize, usize)>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Resolved adjacency: global id → callee global ids (sorted).
    edges: Vec<Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph: flattens the files, then resolves every call
    /// site under `deps` scoping.
    #[must_use]
    pub fn build(files: &'a [FileIndex], deps: &DepMap) -> CallGraph<'a> {
        let mut flat = Vec::new();
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let id = flat.len();
                flat.push((fi, gi));
                by_name.entry(f.name.as_str()).or_default().push(id);
            }
        }
        let mut graph = CallGraph {
            files,
            flat,
            by_name,
            edges: Vec::new(),
        };
        let mut edges = Vec::with_capacity(graph.flat.len());
        for id in 0..graph.flat.len() {
            let mut out = BTreeSet::new();
            let (file, f) = graph.fn_at(id);
            for call in &f.calls {
                for callee in graph.resolve(file, f, call, deps) {
                    if callee != id {
                        out.insert(callee);
                    }
                }
            }
            edges.push(out.into_iter().collect());
        }
        graph.edges = edges;
        graph
    }

    /// The file and function behind a global id.
    #[must_use]
    pub fn fn_at(&self, id: usize) -> (&'a FileIndex, &'a FnItem) {
        let (fi, gi) = self.flat[id];
        (&self.files[fi], &self.files[fi].fns[gi])
    }

    /// Number of functions in the graph.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flat.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Global ids of every function, in file order.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.flat.len()
    }

    /// Direct callees of `id`.
    #[must_use]
    pub fn callees(&self, id: usize) -> &[usize] {
        &self.edges[id]
    }

    /// Candidate callees for one call site.
    fn resolve(
        &self,
        file: &FileIndex,
        caller: &FnItem,
        call: &CallSite,
        deps: &DepMap,
    ) -> Vec<usize> {
        let Some(candidates) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        let in_scope: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| {
                let (cf, cfn) = self.fn_at(id);
                !cfn.is_test && deps.reaches(&file.crate_name, &cf.crate_name)
            })
            .collect();
        if let Some(q) = &call.qualifier {
            if q == "Self" {
                return self.prefer_impl(&in_scope, caller.impl_type.as_deref(), true);
            }
            if q.chars().next().is_some_and(char::is_uppercase) || PRIMITIVES.contains(&q.as_str())
            {
                // A type-qualified call (`Known::make`, `u64::from`)
                // binds only to that type's impl; no match means a
                // std/external type we cannot see.
                return self.prefer_impl(&in_scope, Some(q.as_str()), true);
            }
            // Module-qualified (`wire::decode(…)`): name scoping only.
            return in_scope;
        }
        if call.receiver.as_deref() == Some("self") {
            return self.prefer_impl(&in_scope, caller.impl_type.as_deref(), false);
        }
        in_scope
    }

    /// Filters `ids` to those in an `impl ty` block. With `require`,
    /// an empty match stays empty; otherwise it falls back to `ids`.
    fn prefer_impl(&self, ids: &[usize], ty: Option<&str>, require: bool) -> Vec<usize> {
        let matched: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| self.fn_at(id).1.impl_type.as_deref() == ty)
            .collect();
        if matched.is_empty() && !require {
            return ids.to_vec();
        }
        matched
    }

    /// Every function reachable from `start` (itself included), with the
    /// BFS parent of each reached node so diagnostics can render the
    /// call chain. Returns `(reached ids sorted, parent map)`.
    #[must_use]
    pub fn reachable(&self, start: usize) -> (Vec<usize>, BTreeMap<usize, usize>) {
        let mut seen = BTreeSet::new();
        let mut parent = BTreeMap::new();
        let mut queue = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(id) = queue.pop_front() {
            for &next in self.callees(id) {
                if seen.insert(next) {
                    parent.insert(next, id);
                    queue.push_back(next);
                }
            }
        }
        (seen.into_iter().collect(), parent)
    }

    /// Renders the `start → … → end` call chain from a parent map.
    #[must_use]
    pub fn chain(&self, start: usize, end: usize, parent: &BTreeMap<usize, usize>) -> String {
        let mut names = vec![self.fn_at(end).1.name.clone()];
        let mut cur = end;
        while cur != start {
            let Some(&p) = parent.get(&cur) else { break };
            names.push(self.fn_at(p).1.name.clone());
            cur = p;
        }
        names.reverse();
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;
    use crate::lex::{lex_tokens, split_source, test_mask};

    fn index(crate_name: &str, src: &str) -> FileIndex {
        let lines = split_source(src);
        let mask = test_mask(&lines);
        let tokens = lex_tokens(&lines);
        let allows = vec![BTreeSet::new(); lines.len()];
        index_file(
            crate_name,
            std::path::Path::new("crates/x/src/lib.rs"),
            &lines,
            &mask,
            &tokens,
            &allows,
        )
    }

    fn dep_map(pairs: &[(&str, &[&str])]) -> DepMap {
        let mut deps = BTreeMap::new();
        for (from, to) in pairs {
            let mut set: BTreeSet<String> = to.iter().map(|s| s.to_string()).collect();
            set.insert(from.to_string());
            deps.insert(from.to_string(), set);
        }
        DepMap { deps }
    }

    #[test]
    fn manifest_parsing_extracts_names_and_deps() {
        let text = "[package]\nname = \"bpush-demo\"\n\n[dependencies]\nbpush-types = { workspace = true }\nrenamed = { package = \"bpush-extra\", path = \"../extra\" }\n";
        assert_eq!(package_name(text).as_deref(), Some("bpush-demo"));
        assert_eq!(dependency_names(text), vec!["bpush-types", "bpush-extra"]);
    }

    #[test]
    fn self_calls_prefer_the_callers_impl_type() {
        let files = vec![index(
            "g",
            "impl Fast {\n    fn probe(&self) { self.step(); }\n    fn step(&self) {}\n}\nimpl Slow {\n    fn step(&self) { boom(); }\n}\nfn boom() {}\n",
        )];
        let deps = dep_map(&[("g", &[])]);
        let graph = CallGraph::build(&files, &deps);
        // probe (id 0) must link to Fast::step (id 1), not Slow::step (id 2).
        assert_eq!(graph.callees(0), &[1]);
    }

    #[test]
    fn type_qualified_calls_require_a_matching_impl() {
        let files = vec![index(
            "g",
            "impl Known {\n    fn make() {}\n}\nfn a() { Known::make(); }\nfn b() { External::make(); }\n",
        )];
        let deps = dep_map(&[("g", &[])]);
        let graph = CallGraph::build(&files, &deps);
        let a = 1; // fn a
        let b = 2; // fn b
        assert_eq!(graph.callees(a), &[0]);
        assert!(graph.callees(b).is_empty(), "External::make binds nothing");
    }

    #[test]
    fn primitive_qualified_calls_require_a_matching_impl() {
        let files = vec![index(
            "g",
            "impl From<u8> for Wide {\n    fn from(x: u8) -> Self { grow() }\n}\nimpl From<Wide> for u64 {\n    fn from(w: Wide) -> u64 { 0 }\n}\nfn grow() {}\nfn a() { u64::from(Wide); }\nfn b() { u32::from(1u8); }\n",
        )];
        let deps = dep_map(&[("g", &[])]);
        let graph = CallGraph::build(&files, &deps);
        let (a, b) = (3, 4); // fn a, fn b
        assert_eq!(
            graph.callees(a),
            &[1],
            "u64::from binds the impl for u64 only"
        );
        assert!(graph.callees(b).is_empty(), "u32::from binds nothing");
    }

    #[test]
    fn crate_scoping_limits_candidates() {
        let files = vec![
            index("app", "fn entry() { helper(); }\n"),
            index("lib", "fn helper() {}\n"),
            index("unrelated", "fn helper() { std::thread::sleep(d); }\n"),
        ];
        let deps = dep_map(&[("app", &["lib"]), ("lib", &[]), ("unrelated", &[])]);
        let graph = CallGraph::build(&files, &deps);
        // entry resolves helper only into `lib`, not `unrelated`.
        assert_eq!(graph.callees(0), &[1]);
    }

    #[test]
    fn reachability_and_chain_rendering() {
        let files = vec![index("g", "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n")];
        let deps = dep_map(&[("g", &[])]);
        let graph = CallGraph::build(&files, &deps);
        let (reached, parent) = graph.reachable(0);
        assert_eq!(reached, vec![0, 1, 2]);
        assert_eq!(graph.chain(0, 2, &parent), "a → b → c");
    }
}
