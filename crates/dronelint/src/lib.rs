//! # dronelint
//!
//! The AnDrone workspace's determinism/safety lint engine: a
//! self-contained static-analysis pass (no external parser crates)
//! enforcing the invariants the simulation's seed-stability rests on.
//!
//! v2 is item-aware: [`items`] parses each file into fn/impl/struct/
//! enum/use/mod items, [`graph`] assembles a workspace module graph
//! plus an approximate call graph, and the R3/R4/R9 scopes are
//! *derived* by reachability from the places where a defect actually
//! costs a fleet (the fleet executor, the per-flight island, the
//! Binder translation path, the MAVLink decoders) instead of being
//! hardcoded file lists. The pre-v2 lists survive as `LEGACY_*`
//! constants pinned by a test to be a subset of what inference finds.
//!
//! The rules:
//!
//! - **R1** `nondeterministic-collection`: no `HashMap`/`HashSet` in
//!   sim-state crates.
//! - **R2** `wall-clock-or-entropy`: no `Instant`/`SystemTime`/
//!   `thread_rng` outside `crates/bench` and `scripts`.
//! - **R3** `panic-in-hot-path`: no `unwrap()`/`expect()`/`panic!` in
//!   non-test code reachable from the fleet/island/Binder/MAVLink
//!   entry points (inferred scope).
//! - **R4** `bare-numeric-cast`: no bare `as` numeric casts in code
//!   reachable from the MAVLink decoders (use `try_from` or `wire.rs`
//!   helpers).
//! - **R5** `mutable-global`: no mutable or interior-mutable statics
//!   in sim crates.
//! - **R6** `alias-laundered-collection`: no *use* of a type alias
//!   that renames a `HashMap`/`HashSet` in sim-state crates (the
//!   defining line is R1's to flag).
//! - **R7** `collections-glob-import`: no `use std::collections::*`
//!   in sim-state crates.
//! - **R8** `island-boundary-impurity`: types crossing the
//!   `run_island` signature boundary must be transitively free of
//!   `Rc`/`RefCell`/`Cell` fields (workspace-level rule, flagged at
//!   the type definition).
//! - **R9** `lock-or-blocking-io-in-island`: no lock acquisition or
//!   blocking I/O in island-reachable fn bodies (item-granular).
//! - **R10** `adhoc-rng-stream`: in sim crates, RNGs are constructed
//!   only through `simkern::rng`'s audited funnels.
//!
//! Violations can be suppressed inline with
//! `// dronelint:allow(R3, reason why this one is sound)` — the
//! reason is mandatory — or grandfathered in `dronelint.baseline.json`,
//! which only ratchets downward (see [`baseline`]).
//!
//! The runtime complement is the dual-run state-hash sanitizer in the
//! `androne` crate (`sanitizer` module): R1/R2/R10 ban the *causes* of
//! nondeterminism statically; the sanitizer catches any drift that
//! slips through by hashing component state every simulated second.

pub mod baseline;
pub mod graph;
pub mod items;
pub mod rules;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub use baseline::{Baseline, Entry, Reconciled};
pub use graph::{GraphStats, Workspace};
pub use rules::{RuleInfo, Scopes, RULES, SIM_CRATES};

/// One confirmed lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id ("R0".."R10").
    pub rule: &'static str,
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// The trimmed source line.
    pub snippet: String,
    /// Human-readable message.
    pub message: String,
}

/// A full workspace analysis: violations, the inferred scopes they
/// were checked under, and graph statistics for the JSON report.
#[derive(Debug)]
pub struct Analysis {
    /// All violations, sorted by (path, line, col, rule).
    pub violations: Vec<Violation>,
    /// The reachability-derived scopes.
    pub scopes: rules::Scopes,
    /// Graph size / scope statistics.
    pub stats: graph::GraphStats,
}

/// An inline suppression directive.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    has_reason: bool,
}

/// Parses every `dronelint:allow(rule, reason)` directive in a
/// comment.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("dronelint:allow(") {
        rest = &rest[pos + "dronelint:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let inner = &rest[..close];
        rest = &rest[close + 1..];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        out.push(Allow {
            rule: rule.to_string(),
            has_reason: !reason.is_empty(),
        });
    }
    out
}

/// Suppressions attached to each code line (1-based): same-line
/// directives plus any carried down from comment-only lines above.
/// This is the single implementation of the carry semantics — both
/// the line rules and the workspace-level R8 consult it.
fn allows_by_line(lines: &[scan::CodeLine]) -> BTreeMap<usize, Vec<Allow>> {
    let mut out = BTreeMap::new();
    let mut carried: Vec<Allow> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut allows = parse_allows(&line.comment);
        if line.code.trim().is_empty() {
            carried.append(&mut allows);
            continue;
        }
        allows.append(&mut carried);
        if !allows.is_empty() {
            out.insert(idx + 1, allows);
        }
    }
    out
}

/// Lints one file's source text under explicit scopes. `path` is the
/// repo-relative path (forward slashes) used for rule scoping —
/// callers may pass a pretend path to lint fixture text as if it
/// lived in a scoped location.
pub fn scan_source_scoped(path: &str, source: &str, scopes: &rules::Scopes) -> Vec<Violation> {
    let lines = scan::preprocess(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut violations = Vec::new();
    // First pass: collect type aliases laundering HashMap/HashSet
    // anywhere in the file (test regions included — live code can
    // name a test-defined alias), for R6's use-site check.
    let hash_aliases: BTreeSet<String> = lines
        .iter()
        .filter(|l| !l.code.trim().is_empty())
        .filter_map(|l| rules::hash_alias_name(&scan::tokenize(&l.code)))
        .collect();
    let allows = allows_by_line(&lines);
    let no_allows = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        if line.code.trim().is_empty() {
            continue;
        }
        let line_allows = allows.get(&(idx + 1)).unwrap_or(&no_allows);

        // A suppression without a reason is itself a violation: the
        // whole point is an audit trail.
        for a in line_allows {
            if !a.has_reason {
                violations.push(Violation {
                    rule: "R0",
                    path: path.to_string(),
                    line: idx + 1,
                    col: 1,
                    snippet: snippet_at(&raw_lines, idx),
                    message: format!(
                        "dronelint:allow({}) without a reason; write dronelint:allow({}, why)",
                        a.rule, a.rule
                    ),
                });
            }
        }

        if line.in_test {
            continue;
        }
        for m in rules::check_line_scoped(
            path,
            idx + 1,
            &scan::tokenize(&line.code),
            &hash_aliases,
            scopes,
        ) {
            let suppressed = line_allows.iter().any(|a| a.has_reason && a.rule == m.rule);
            if suppressed {
                continue;
            }
            violations.push(Violation {
                rule: m.rule,
                path: path.to_string(),
                line: idx + 1,
                col: m.col,
                snippet: snippet_at(&raw_lines, idx),
                message: m.message,
            });
        }
    }
    violations
}

/// Lints one file's source text under the legacy (pre-inference)
/// scopes — the right mode for single-file/fixture linting where no
/// workspace graph exists.
pub fn scan_source(path: &str, source: &str) -> Vec<Violation> {
    scan_source_scoped(path, source, &rules::Scopes::legacy())
}

fn snippet_at(raw_lines: &[&str], idx: usize) -> String {
    raw_lines
        .get(idx)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Analyzes in-memory sources: builds the item/call graph, infers the
/// R3/R4/R9 scopes by reachability, runs the line rules under them,
/// and appends workspace-level R8 violations.
///
/// `sources` are `(repo-relative path, text)` pairs; order does not
/// matter (violations come back path-sorted).
pub fn analyze_sources(sources: &[(String, String)]) -> Analysis {
    let parsed: Vec<(String, items::FileItems)> = sources
        .iter()
        .filter(|(path, _)| graph::in_domain(path))
        .map(|(path, text)| (path.clone(), items::parse_items(&scan::preprocess(text))))
        .collect();
    let mut ws = graph::Workspace::build(parsed);

    let hot = ws.reachable(graph::ENTRY_POINTS);
    let decode = ws.reachable(graph::DECODE_ENTRIES);
    let island = ws.reachable(&[graph::ISLAND_ENTRY]);

    let scopes = rules::Scopes {
        r3_files: ws.files_of(&hot),
        r3_prefixes: Vec::new(),
        // R4 binds to decode-reachable files inside the wire crate:
        // that is where casts touch attacker-controlled bytes. Past
        // the typed-message boundary the data is already validated
        // (and method-name over-approximation would otherwise drag
        // every `len()`/`mean()` utility file into wire scope).
        // wire.rs itself is the audited home for the format's
        // narrowings.
        r4_files: ws
            .files_of(&decode)
            .into_iter()
            .filter(|p| p.starts_with("crates/mavlink/") && p != "crates/mavlink/src/wire.rs")
            .collect(),
        island_spans: ws.spans_of(&island),
    };

    let legacy = rules::Scopes::legacy();
    let (fn_nodes, type_nodes) = ws.node_counts();
    let stats = graph::GraphStats {
        files_scanned: sources.len(),
        graph_files: ws.files.len(),
        fn_nodes,
        type_nodes,
        call_edges: ws.call_edges,
        r3_inferred_files: scopes.r3_files.len(),
        r3_legacy_files: sources.iter().filter(|(p, _)| legacy.r3_applies(p)).count(),
        r4_inferred_files: scopes.r4_files.len(),
        island_fns: island.len(),
        wall_ms: 0,
    };

    let mut violations = Vec::new();
    for (path, text) in sources {
        violations.extend(scan_source_scoped(path, text, &scopes));
    }

    // R8 is workspace-level (the purity walk crosses files), so its
    // violations are produced here and suppressed against the allows
    // at each type's definition line.
    for p in ws.island_purity_violations() {
        let source = sources
            .iter()
            .find(|(path, _)| *path == p.path)
            .map(|(_, s)| s.as_str())
            .unwrap_or("");
        let suppressed = allows_by_line(&scan::preprocess(source))
            .get(&p.line)
            .is_some_and(|a| a.iter().any(|a| a.has_reason && a.rule == "R8"));
        if suppressed {
            continue;
        }
        violations.push(Violation {
            rule: "R8",
            path: p.path,
            line: p.line,
            col: 1,
            snippet: source
                .lines()
                .nth(p.line.saturating_sub(1))
                .map(str::trim)
                .unwrap_or("")
                .to_string(),
            message: format!(
                "type `{ty}` holds a `{impure}` field and crosses the island boundary \
                 (via {chain}); island work/results cross the worker-pool thread \
                 boundary and must be plain data",
                ty = p.type_name,
                impure = p.impure,
                chain = p.chain,
            ),
        });
    }

    violations.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Analysis {
        violations,
        scopes,
        stats,
    }
}

/// Walks the workspace at `root`, runs the full item-graph analysis,
/// and returns violations plus inferred scopes and graph stats.
///
/// Scope: `crates/**/*.rs`, excluding `target/`, `vendor/`, and any
/// `fixtures/` directory (lint-test seed files are violations on
/// purpose).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&file)?));
    }
    Ok(analyze_sources(&sources))
}

/// Walks the workspace and returns just the violations (the full
/// v2 analysis; see [`analyze_workspace`] for scopes and stats).
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    Ok(analyze_workspace(root)?.violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_silences_the_line() {
        let src = "use std::collections::HashMap; // dronelint:allow(R1, interop shim, keys re-sorted before iteration)\n";
        assert!(scan_source("crates/simkern/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_on_its_own_line_covers_the_next_line() {
        let src = "// dronelint:allow(R1, measured: BTree 3x slower here, order never observed)\nuse std::collections::HashMap;\n";
        assert!(scan_source("crates/simkern/src/x.rs", src).is_empty());
    }

    #[test]
    fn reasonless_suppression_is_flagged_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // dronelint:allow(R1)\n";
        let v = scan_source("crates/simkern/src/x.rs", src);
        let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"R0"), "{rules:?}");
        assert!(rules.contains(&"R1"), "{rules:?}");
    }

    #[test]
    fn suppression_for_a_different_rule_does_not_apply() {
        let src = "use std::collections::HashMap; // dronelint:allow(R2, wrong rule)\n";
        let v = scan_source("crates/simkern/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "R1");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(scan_source("crates/flight/src/x.rs", src).is_empty());
    }

    #[test]
    fn violations_carry_exact_line_and_snippet() {
        let src = "fn ok() {}\nlet m = HashMap::new();\n";
        let v = scan_source("crates/binder/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].snippet, "let m = HashMap::new();");
    }

    fn src_pair(path: &str, text: &str) -> (String, String) {
        (path.to_string(), text.to_string())
    }

    #[test]
    fn analyze_sources_infers_r3_scope_from_reachability() {
        let sources = vec![
            src_pair(
                "crates/core/src/fleet.rs",
                "pub fn execute_fleet() { step(); }\npub fn run_island() {}\nfn step() { androne_flight::tick(); }\n",
            ),
            src_pair(
                "crates/flight/src/lib.rs",
                "pub fn tick() { let x: Option<u8> = None; x.unwrap(); }\n",
            ),
            src_pair(
                "crates/cloud/src/unreachable.rs",
                "pub fn lonely() { let y: Option<u8> = None; y.unwrap(); }\n",
            ),
        ];
        let a = analyze_sources(&sources);
        assert!(a.scopes.r3_applies("crates/flight/src/lib.rs"));
        assert!(
            !a.scopes.r3_applies("crates/cloud/src/unreachable.rs"),
            "unreachable file stays out of the no-panic scope"
        );
        let r3: Vec<&Violation> = a.violations.iter().filter(|v| v.rule == "R3").collect();
        assert_eq!(r3.len(), 1, "{:?}", a.violations);
        assert_eq!(r3[0].path, "crates/flight/src/lib.rs");
    }

    #[test]
    fn trait_default_methods_carry_reachability_to_impls() {
        let sources = vec![
            src_pair(
                "crates/core/src/fleet.rs",
                "pub fn run_island(k: Kernel) -> u64 { k.hash_value() }\n",
            ),
            src_pair(
                "crates/simkern/src/statehash.rs",
                "pub trait StateHash {\n    fn state_hash(&self, h: &mut StateHasher);\n    fn hash_value(&self) -> u64 {\n        self.state_hash(&mut h)\n    }\n}\n",
            ),
            src_pair(
                "crates/hal/src/statehash.rs",
                "impl StateHash for Truth {\n    fn state_hash(&self, h: &mut StateHasher) {}\n}\n",
            ),
        ];
        let a = analyze_sources(&sources);
        assert!(a.scopes.r3_applies("crates/simkern/src/statehash.rs"));
        assert!(
            a.scopes.r3_applies("crates/hal/src/statehash.rs"),
            "the impl is reached through the trait's provided method"
        );
    }

    #[test]
    fn analyze_sources_flags_r8_at_the_definition_and_respects_allows() {
        let impure = src_pair(
            "crates/core/src/fleet.rs",
            "pub struct Work { h: Rc<u32> }\npub fn run_island(w: Work) {}\n",
        );
        let a = analyze_sources(&[impure]);
        let r8: Vec<&Violation> = a.violations.iter().filter(|v| v.rule == "R8").collect();
        assert_eq!(r8.len(), 1);
        assert_eq!((r8[0].line, r8[0].col), (1, 1));

        let allowed = src_pair(
            "crates/core/src/fleet.rs",
            "// dronelint:allow(R8, handle is rebuilt on the worker, never sent)\npub struct Work { h: Rc<u32> }\npub fn run_island(w: Work) {}\n",
        );
        let a = analyze_sources(&[allowed]);
        assert!(
            a.violations.iter().all(|v| v.rule != "R8"),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn analyze_sources_reports_graph_stats() {
        let sources = vec![src_pair(
            "crates/core/src/fleet.rs",
            "pub fn execute_fleet() {}\npub fn run_island() {}\npub struct Work;\n",
        )];
        let a = analyze_sources(&sources);
        assert_eq!(a.stats.files_scanned, 1);
        assert_eq!(a.stats.graph_files, 1);
        assert_eq!(a.stats.fn_nodes, 2);
        assert_eq!(a.stats.type_nodes, 1);
        assert!(a.stats.island_fns >= 1);
    }
}
