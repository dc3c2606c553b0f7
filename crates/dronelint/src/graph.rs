//! Workspace module/call-graph construction and the derived rule
//! scopes.
//!
//! PR 2's R3/R4 scoping was a hardcoded file list — every new
//! hot-path file silently escaped it (the ROADMAP's named blind
//! spot). This module replaces the lists with *reachability*: the
//! entry points below are the places where a panic or a silent
//! truncation actually costs a fleet (the fleet executor, the
//! per-flight island, the Binder translation path, the MAVLink
//! decoders), and any function a BFS over the approximate call graph
//! can reach from them is in scope. The hardcoded lists survive only
//! as [`crate::rules`]' `LEGACY_*` constants, pinned by a test to be
//! a subset of what inference finds — scope can only grow.
//!
//! Name resolution is approximate by design (no type inference):
//! `T::m(..)` resolves through impl blocks, bare `f(..)` resolves
//! same-file → same-crate → workspace free fns, and `.m(..)` resolves
//! to every workspace method of that name. Over-approximation is the
//! safe direction for a lint scope.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{CallRef, FileItems};

/// Call-graph roots: places where a panic aborts a whole fleet or a
/// truncation corrupts attacker-controlled bytes.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("crates/core/src/fleet.rs", "execute_fleet"),
    ("crates/core/src/scale.rs", "execute_scale_fleet"),
    ("crates/core/src/androne.rs", "execute_one_flight"),
    ("crates/core/src/fleet.rs", "run_island"),
    ("crates/binder/src/driver.rs", "translate_parcel"),
    ("crates/mavlink/src/codec.rs", "decode_frame"),
    ("crates/mavlink/src/message.rs", "decode_payload"),
];

/// The subset of [`ENTRY_POINTS`] whose reachable set defines the R9
/// no-lock scope and roots the R8 purity walk: one island = one
/// thread, so everything `run_island` reaches must neither block nor
/// smuggle `Rc` state across the pool boundary.
pub const ISLAND_ENTRY: (&str, &str) = ("crates/core/src/fleet.rs", "run_island");

/// The subset of [`ENTRY_POINTS`] whose reachable set defines the R4
/// no-bare-cast scope (wire parsing of attacker-controlled bytes).
pub const DECODE_ENTRIES: &[(&str, &str)] = &[
    ("crates/mavlink/src/codec.rs", "decode_frame"),
    ("crates/mavlink/src/message.rs", "decode_payload"),
];

/// Crates excluded from the graph domain: `bench` measures host time
/// by design and `dronelint` is the lint itself — resolving calls
/// into them would drag them into hot-path scope through generous
/// method-name matching.
pub const EXCLUDED_CRATES: &[&str] = &["bench", "dronelint"];

/// Interior-mutability / non-`Send` types banned from island
/// boundary structs (R8).
const ISLAND_IMPURE: &[&str] = &["Rc", "RefCell", "Cell", "UnsafeCell"];

/// One parsed file in the workspace graph.
#[derive(Debug, Clone)]
pub struct WorkspaceFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// Crate name (`crates/<name>/...`).
    pub krate: String,
    /// The file's parsed items.
    pub items: FileItems,
}

/// (file index, fn index) — one function in the workspace.
pub type FnId = (usize, usize);

/// The workspace item graph.
pub struct Workspace {
    /// Files in the resolution domain, sorted by path.
    pub files: Vec<WorkspaceFile>,
    /// `(self_ty, name)` → implementing fns.
    qualified: BTreeMap<(String, String), Vec<FnId>>,
    /// Free-fn name → fns, per file.
    free_in_file: BTreeMap<(usize, String), Vec<FnId>>,
    /// Free-fn name → fns, per crate.
    free_in_crate: BTreeMap<(String, String), Vec<FnId>>,
    /// Free-fn name → fns, workspace-wide.
    free_global: BTreeMap<String, Vec<FnId>>,
    /// Method name → fns with any self type.
    methods: BTreeMap<String, Vec<FnId>>,
    /// Type name → defining (file, type index); first definition in
    /// path order wins (collisions are acceptable over-approximation).
    types: BTreeMap<String, (usize, usize)>,
    /// Resolved call edges (deduplicated), for stats.
    pub call_edges: usize,
}

/// Whether `path` is inside the graph resolution domain: a crate's
/// `src/` tree, minus the excluded crates. Integration tests,
/// benches, and examples are all-test code by construction — letting
/// their helper fns into the graph would drag whole test files into
/// hot-path scope through method-name over-approximation.
pub fn in_domain(path: &str) -> bool {
    let Some(rest) = path.strip_prefix("crates/") else {
        return false;
    };
    let mut parts = rest.split('/');
    let krate = parts.next().unwrap_or("");
    parts.next() == Some("src") && !EXCLUDED_CRATES.contains(&krate)
}

impl Workspace {
    /// Builds the graph from parsed files. Files outside the domain
    /// (non-`crates/`, bench, dronelint) are dropped here.
    pub fn build(parsed: Vec<(String, FileItems)>) -> Workspace {
        let mut files: Vec<WorkspaceFile> = parsed
            .into_iter()
            .filter(|(path, _)| in_domain(path))
            .map(|(path, items)| {
                let krate = path
                    .strip_prefix("crates/")
                    .and_then(|r| r.split('/').next())
                    .unwrap_or("")
                    .to_string();
                WorkspaceFile { path, krate, items }
            })
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));

        let mut ws = Workspace {
            files,
            qualified: BTreeMap::new(),
            free_in_file: BTreeMap::new(),
            free_in_crate: BTreeMap::new(),
            free_global: BTreeMap::new(),
            methods: BTreeMap::new(),
            types: BTreeMap::new(),
            call_edges: 0,
        };

        for (fi, file) in ws.files.iter().enumerate() {
            for (gi, f) in file.items.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let id: FnId = (fi, gi);
                match &f.self_ty {
                    Some(ty) => {
                        ws.qualified
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        ws.methods.entry(f.name.clone()).or_default().push(id);
                    }
                    None => {
                        ws.free_in_file
                            .entry((fi, f.name.clone()))
                            .or_default()
                            .push(id);
                        ws.free_in_crate
                            .entry((file.krate.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                        ws.free_global.entry(f.name.clone()).or_default().push(id);
                    }
                }
            }
            for (ti, t) in file.items.types.iter().enumerate() {
                if t.in_test {
                    continue;
                }
                ws.types.entry(t.name.clone()).or_insert((fi, ti));
            }
        }
        ws
    }

    /// Resolves one call site to candidate fns. `caller_self_ty` is
    /// the caller's impl type, used to bind `Self::helper(..)`.
    fn resolve(
        &self,
        caller_file: usize,
        caller_self_ty: Option<&str>,
        call: &CallRef,
    ) -> Vec<FnId> {
        match call {
            CallRef::Bare(name) => {
                if let Some(v) = self.free_in_file.get(&(caller_file, name.clone())) {
                    return v.clone();
                }
                let krate = &self.files[caller_file].krate;
                if let Some(v) = self.free_in_crate.get(&(krate.clone(), name.clone())) {
                    return v.clone();
                }
                self.free_global.get(name).cloned().unwrap_or_default()
            }
            CallRef::Qualified(owner, name) => {
                let is_type = owner.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                if is_type {
                    // `Self::helper(..)` binds to the caller's impl.
                    let owner = if owner == "Self" {
                        match caller_self_ty {
                            Some(ty) => ty.to_string(),
                            None => return Vec::new(),
                        }
                    } else {
                        owner.clone()
                    };
                    self.qualified
                        .get(&(owner, name.clone()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    // `module::func(..)` — a free fn somewhere.
                    self.free_global.get(name).cloned().unwrap_or_default()
                }
            }
            CallRef::Method(name) => self.methods.get(name).cloned().unwrap_or_default(),
        }
    }

    fn find_fn(&self, path: &str, name: &str) -> Option<FnId> {
        let fi = self.files.iter().position(|f| f.path == path)?;
        let gi = self.files[fi]
            .items
            .fns
            .iter()
            .position(|f| f.name == name && !f.in_test)?;
        Some((fi, gi))
    }

    /// BFS over the call graph from the given `(file, fn)` roots.
    /// Returns every reachable non-test fn (roots included). Missing
    /// roots are skipped (a renamed entry point shows up as a scope
    /// collapse the superset pin test catches).
    pub fn reachable(&mut self, roots: &[(&str, &str)]) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: Vec<FnId> = roots
            .iter()
            .filter_map(|(p, n)| self.find_fn(p, n))
            .collect();
        let mut edges: BTreeSet<(FnId, FnId)> = BTreeSet::new();
        while let Some(id) = queue.pop() {
            if !seen.insert(id) {
                continue;
            }
            let caller = &self.files[id.0].items.fns[id.1];
            let calls = caller.calls.clone();
            let self_ty = caller.self_ty.clone();
            for call in &calls {
                for target in self.resolve(id.0, self_ty.as_deref(), call) {
                    edges.insert((id, target));
                    if !seen.contains(&target) {
                        queue.push(target);
                    }
                }
            }
        }
        self.call_edges = self.call_edges.max(edges.len());
        seen
    }

    /// Files containing at least one fn from `set`.
    pub fn files_of(&self, set: &BTreeSet<FnId>) -> BTreeSet<String> {
        set.iter().map(|&(fi, _)| self.files[fi].path.clone()).collect()
    }

    /// Per-file body line ranges of the fns in `set`.
    pub fn spans_of(&self, set: &BTreeSet<FnId>) -> BTreeMap<String, Vec<(usize, usize)>> {
        let mut out: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for &(fi, gi) in set {
            out.entry(self.files[fi].path.clone())
                .or_default()
                .push(self.files[fi].items.fns[gi].span);
        }
        for spans in out.values_mut() {
            spans.sort_unstable();
        }
        out
    }

    /// R8 island-boundary purity: every type reachable through the
    /// struct graph from `run_island`'s signature types must be plain
    /// data — no `Rc`/`RefCell`/`Cell`/`UnsafeCell` anywhere in its
    /// field closure, because island work/results cross the
    /// `WorkerPool`'s thread boundary by value.
    pub fn island_purity_violations(&self) -> Vec<PurityViolation> {
        let Some((fi, gi)) = self.find_fn(ISLAND_ENTRY.0, ISLAND_ENTRY.1) else {
            return Vec::new();
        };
        let roots = self.files[fi].items.fns[gi].sig_types.clone();

        let mut out = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        // (type name, boundary-to-type field chain). First visit wins;
        // a shorter/alternate chain to an already-seen type adds no
        // new impurity.
        let mut queue: Vec<(String, Vec<String>)> = roots
            .into_iter()
            .map(|name| {
                let chain = vec![name.clone()];
                (name, chain)
            })
            .collect();
        while let Some((name, chain)) = queue.pop() {
            if !seen.insert(name.clone()) {
                continue;
            }
            let Some(&(tf, ti)) = self.types.get(&name) else {
                continue; // std / external type: opaque, assumed Send.
            };
            let ty = &self.files[tf].items.types[ti];
            for field in &ty.field_types {
                if ISLAND_IMPURE.contains(&field.as_str()) {
                    out.push(PurityViolation {
                        path: self.files[tf].path.clone(),
                        line: ty.line,
                        type_name: ty.name.clone(),
                        impure: field.clone(),
                        chain: chain.join(" -> "),
                    });
                } else if !seen.contains(field) {
                    let mut next = chain.clone();
                    next.push(field.clone());
                    queue.push((field.clone(), next));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Total fns and types in the domain (for stats).
    pub fn node_counts(&self) -> (usize, usize) {
        let fns = self.files.iter().map(|f| f.items.fns.len()).sum();
        let types = self.files.iter().map(|f| f.items.types.len()).sum();
        (fns, types)
    }
}

/// One R8 island-boundary purity violation: a type in the field
/// closure of `run_island`'s signature holds an impure field.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PurityViolation {
    /// File defining the impure type.
    pub path: String,
    /// 1-based line of the type definition.
    pub line: usize,
    /// The type holding the impure field.
    pub type_name: String,
    /// The impure wrapper found (`Rc`, `RefCell`, ...).
    pub impure: String,
    /// How the boundary reaches this type, `" -> "`-joined from the
    /// signature type down.
    pub chain: String,
}

/// Graph statistics for the JSON report / EXPERIMENTS.md.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    /// Files parsed workspace-wide (lint scope).
    pub files_scanned: usize,
    /// Files in the graph resolution domain.
    pub graph_files: usize,
    /// fn items in the domain.
    pub fn_nodes: usize,
    /// type items in the domain.
    pub type_nodes: usize,
    /// Resolved, deduplicated call edges seen during reachability.
    pub call_edges: usize,
    /// Files in the inferred R3 scope.
    pub r3_inferred_files: usize,
    /// Files the legacy hardcoded R3 scope named (with ≥1 fn item).
    pub r3_legacy_files: usize,
    /// Files in the inferred R4 scope.
    pub r4_inferred_files: usize,
    /// fns reachable from the island entry (R9 scope).
    pub island_fns: usize,
    /// Wall-clock of the full analysis, milliseconds.
    pub wall_ms: u128,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::scan::preprocess;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, src)| (p.to_string(), parse_items(&preprocess(src))))
                .collect(),
        )
    }

    #[test]
    fn bare_calls_resolve_same_file_first() {
        let mut w = ws(&[
            (
                "crates/core/src/fleet.rs",
                "fn run_island() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/flight/src/x.rs", "fn helper() { deep(); }\nfn deep() {}\n"),
        ]);
        let r = w.reachable(&[("crates/core/src/fleet.rs", "run_island")]);
        let files = w.files_of(&r);
        assert!(files.contains("crates/core/src/fleet.rs"));
        assert!(
            !files.contains("crates/flight/src/x.rs"),
            "same-file helper shadows the cross-crate one"
        );
    }

    #[test]
    fn method_calls_resolve_across_the_workspace() {
        let mut w = ws(&[
            (
                "crates/core/src/fleet.rs",
                "fn run_island(d: Drone) { d.fly(); }\n",
            ),
            (
                "crates/flight/src/sitl.rs",
                "impl Drone {\n    pub fn fly(&self) { self.tick(); }\n    fn tick(&self) {}\n}\n",
            ),
        ]);
        let r = w.reachable(&[("crates/core/src/fleet.rs", "run_island")]);
        assert_eq!(r.len(), 3, "entry + fly + tick");
    }

    #[test]
    fn excluded_crates_never_enter_the_graph() {
        let mut w = ws(&[
            ("crates/core/src/fleet.rs", "fn run_island() { go(); }\n"),
            ("crates/bench/src/x.rs", "fn go() {}\n"),
        ]);
        let r = w.reachable(&[("crates/core/src/fleet.rs", "run_island")]);
        assert_eq!(w.files_of(&r).len(), 1);
    }

    #[test]
    fn test_fns_are_invisible() {
        let mut w = ws(&[(
            "crates/core/src/fleet.rs",
            "fn run_island() { helper(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { nuke(); }\n}\nfn nuke() {}\n",
        )]);
        let r = w.reachable(&[("crates/core/src/fleet.rs", "run_island")]);
        // The test helper is skipped; bare `helper` then resolves to
        // nothing in-file, nothing in-crate, nothing global.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn island_purity_walk_flags_transitive_rc() {
        let w = ws(&[
            (
                "crates/core/src/fleet.rs",
                "pub struct Work { inner: Payload }\nfn run_island(w: Work) -> Verdict { loop {} }\npub enum Verdict { Ok }\n",
            ),
            (
                "crates/core/src/pool.rs",
                "pub struct Payload { cell: Rc<Thing> }\npub struct Thing;\n",
            ),
        ]);
        let v = w.island_purity_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].type_name, "Payload");
        assert_eq!(v[0].impure, "Rc");
        assert_eq!(v[0].line, 1, "flagged at the struct definition line");
        assert_eq!(v[0].chain, "Work -> Payload");
    }

    #[test]
    fn island_purity_clean_when_fields_are_plain() {
        let w = ws(&[(
            "crates/core/src/fleet.rs",
            "pub struct Work { plan: Vec<u32>, seed: u64 }\nfn run_island(w: Work) -> u64 { w.seed }\n",
        )]);
        assert!(w.island_purity_violations().is_empty());
    }

    #[test]
    fn aliases_forward_through_the_purity_walk() {
        let w = ws(&[(
            "crates/core/src/fleet.rs",
            "type Handle = Rc<RefCell<Kernel>>;\npub struct Work { k: Handle }\nfn run_island(w: Work) {}\npub struct Kernel;\n",
        )]);
        let v = w.island_purity_violations();
        assert!(
            v.iter().any(|p| p.type_name == "Handle"),
            "alias over Rc flagged: {v:?}"
        );
    }
}
