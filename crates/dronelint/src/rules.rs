//! The line rules (R3, R4, R5, R9) and their scoping.
//!
//! Every line rule is token-level. Rules apply to non-test code only:
//! `#[cfg(test)]` / `#[test]` regions are exempt, because tests
//! legitimately call `unwrap()` and panic on assertion failure.
//!
//! R3/R4/R9 scoping comes from a [`Scopes`] value. The workspace
//! analysis derives one by call-graph reachability (see
//! [`crate::graph`]); [`Scopes::legacy`] reproduces the pre-inference
//! hardcoded lists for fixture tests and the superset pin. R5 binds
//! to every file dronelint scans.
//!
//! The bans that only name a type or a function (the retired R1, R2,
//! R6, R7 and R10) are clippy's `disallowed-types` and
//! `disallowed-methods` in `crates/clippy.toml`, which resolve paths
//! through aliases, renamed imports and globs.

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::Token;

/// The pre-inference hardcoded R3 no-panic file list, kept only for
/// the superset pin test: the inferred scope must cover every file
/// here that has fn items. Do NOT add to this list — new hot-path
/// files are picked up by reachability.
pub const LEGACY_R3_FILES: &[&str] = &[
    "crates/binder/src/driver.rs",
    "crates/mavlink/src/codec.rs",
    "crates/sdk/src/retry.rs",
    "crates/core/src/injector.rs",
    "crates/core/src/fleet.rs",
    "crates/core/src/pool.rs",
    "crates/cloud/src/facade.rs",
    "crates/simkern/src/faults.rs",
    "crates/hal/src/faults.rs",
    "crates/core/src/probe.rs",
];
/// Pre-inference R3 path prefixes (see [`LEGACY_R3_FILES`]).
pub const LEGACY_R3_PREFIXES: &[&str] = &["crates/flight/src/", "crates/obs/src/"];

/// The pre-inference hardcoded R4 wire-path list (see
/// [`LEGACY_R3_FILES`] for why it survives). `wire.rs` is
/// deliberately absent — it is the audited home for the few
/// narrowings the format needs.
pub const LEGACY_R4_FILES: &[&str] = &["crates/mavlink/src/codec.rs", "crates/mavlink/src/crc.rs"];

/// Rule scoping: which files/lines R3, R4, and R9 bind to.
#[derive(Debug, Clone, Default)]
pub struct Scopes {
    /// Files in the R3 no-panic scope.
    pub r3_files: BTreeSet<String>,
    /// Path prefixes in the R3 scope (legacy mode only; inference
    /// produces explicit files).
    pub r3_prefixes: Vec<&'static str>,
    /// Files in the R4 no-bare-cast scope.
    pub r4_files: BTreeSet<String>,
    /// Per-file line spans of island-reachable fns (R9). Empty in
    /// legacy mode — R9 needs the graph.
    pub island_spans: BTreeMap<String, Vec<(usize, usize)>>,
}

impl Scopes {
    /// The pre-inference hardcoded scoping, for single-file linting
    /// (fixture tests) where no call graph exists.
    pub fn legacy() -> Scopes {
        Scopes {
            r3_files: LEGACY_R3_FILES.iter().map(|s| s.to_string()).collect(),
            r3_prefixes: LEGACY_R3_PREFIXES.to_vec(),
            r4_files: LEGACY_R4_FILES.iter().map(|s| s.to_string()).collect(),
            island_spans: BTreeMap::new(),
        }
    }

    /// Whether `path` is in the R3 no-panic scope.
    pub fn r3_applies(&self, path: &str) -> bool {
        self.r3_files.contains(path) || self.r3_prefixes.iter().any(|p| path.starts_with(p))
    }

    /// Whether `path` is in the R4 no-bare-cast scope.
    pub fn r4_applies(&self, path: &str) -> bool {
        self.r4_files.contains(path)
    }

    /// Whether `path:line` falls inside an island-reachable fn body.
    pub fn in_island(&self, path: &str, line: usize) -> bool {
        self.island_spans
            .get(path)
            .is_some_and(|spans| spans.iter().any(|&(a, b)| (a..=b).contains(&line)))
    }
}

/// Numeric primitive types for R4 cast detection.
const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Interior-mutability wrappers that turn a `static` into shared
/// mutable state (R5).
const INTERIOR_MUT: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "OnceCell",
    "OnceLock",
    "LazyCell",
    "LazyLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// A rule's static description.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule id ("R0".."R9").
    pub id: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// What the rule protects.
    pub rationale: &'static str,
    /// An example fix (`--explain` output / DESIGN.md catalog).
    pub fix: &'static str,
}

/// All rules, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "R0",
        name: "reasonless-suppression",
        rationale: "a `dronelint:allow` without a reason leaves no audit trail, so it \
                    suppresses nothing and is itself a violation",
        fix: "write `// dronelint:allow(R3, why this one is sound)`",
    },
    RuleInfo {
        id: "R3",
        name: "panic-in-hot-path",
        rationale: "unwrap/expect/panic! in code reachable from the fleet executor, flight \
                    island, Binder translation, or MAVLink decode aborts the whole fleet; \
                    return a typed error (scope is inferred by call-graph reachability)",
        fix: "replace `x.expect(\"invariant\")` with `x.ok_or(Error::Invariant(\"...\"))?` \
              and let the island scrap one flight instead of the fleet",
    },
    RuleInfo {
        id: "R4",
        name: "bare-numeric-cast",
        rationale: "a bare `as` in code reachable from the MAVLink decoders silently \
                    truncates attacker-controlled lengths; use try_from or the audited \
                    wire.rs helpers",
        fix: "replace `n as u8` with `u8::try_from(n)?` or a named wire.rs helper \
              (`wire::len8`, `wire::i8_bits`) that states its invariant",
    },
    RuleInfo {
        id: "R5",
        name: "mutable-global",
        rationale: "mutable or interior-mutable statics are cross-run shared state the \
                    seed does not control",
        fix: "move the state into the Kernel (or the component struct) so it is rebuilt \
              per run from the seed",
    },
    RuleInfo {
        id: "R8",
        name: "island-boundary-impurity",
        rationale: "types crossing the WorkerPool boundary (run_island's work/result \
                    signature, transitively through their fields) must be plain data; an \
                    Rc/RefCell/Cell field smuggles single-threaded island state across \
                    threads and breaks Send soundness the executor relies on",
        fix: "keep shared handles inside the island: pass plain data (ids, Vec, BTreeMap, \
              Box) across the boundary and rebuild the Rc/RefCell graph on the worker",
    },
    RuleInfo {
        id: "R9",
        name: "lock-or-blocking-io-in-island",
        rationale: "islands are single-threaded by construction — a lock acquired in \
                    island-reachable code is dead weight at best and a cross-island \
                    ordering channel (deadlock + nondeterminism) at worst; blocking I/O \
                    stalls a whole worker thread",
        fix: "use Rc<RefCell<..>> for intra-island sharing (the island never crosses a \
              thread) and route I/O through the deterministic obs/trace layer",
    },
];

/// A single rule match on one line (before suppression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Rule id ("R3".."R9").
    pub rule: &'static str,
    /// 1-based column.
    pub col: usize,
    /// Violation message.
    pub message: String,
}

/// Blocking-I/O idents R9 bans outright inside island spans.
const ISLAND_BLOCKING_TYPES: &[&str] = &["TcpStream", "UdpSocket", "TcpListener"];

/// Runs every applicable rule over one tokenized line. `line` is the
/// 1-based line number (0 disables the line-scoped R9 check), and
/// `scopes` supplies the R3/R4/R9 binding.
pub fn check_line_scoped(path: &str, line: usize, tokens: &[Token], scopes: &Scopes) -> Vec<Match> {
    let mut out = Vec::new();
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());

    for (i, tok) in tokens.iter().enumerate() {
        let t = tok.text.as_str();

        // R3: panic paths in hot-path (entry-reachable) non-test code.
        if scopes.r3_applies(path) {
            let is_call = text(i + 1) == Some("(");
            if (t == "unwrap" || t == "expect") && is_call && text(i.wrapping_sub(1)) == Some(".") {
                out.push(Match {
                    rule: "R3",
                    col: tok.col,
                    message: format!(".{t}() in a no-panic file; return a typed error instead"),
                });
            }
            if t == "panic" && text(i + 1) == Some("!") {
                out.push(Match {
                    rule: "R3",
                    col: tok.col,
                    message: "panic! in a no-panic file; return a typed error instead".into(),
                });
            }
        }

        // R4: bare numeric `as` casts in the wire path.
        if scopes.r4_applies(path)
            && t == "as"
            && text(i + 1).is_some_and(|n| NUMERIC_TYPES.contains(&n))
        {
            out.push(Match {
                rule: "R4",
                col: tok.col,
                message: format!(
                    "bare `as {}` cast in the wire path; use try_from or wire.rs helpers",
                    text(i + 1).unwrap_or("?")
                ),
            });
        }

        // R5: mutable globals, in every crate.
        if t == "static" && text(i.wrapping_sub(1)) != Some("'") {
            if text(i + 1) == Some("mut") {
                out.push(Match {
                    rule: "R5",
                    col: tok.col,
                    message: "static mut: unsynchronized global mutable state".into(),
                });
            } else if tokens
                .iter()
                .any(|t2| INTERIOR_MUT.contains(&t2.text.as_str()))
            {
                out.push(Match {
                    rule: "R5",
                    col: tok.col,
                    message: "static with interior mutability: shared mutable state outside the seed's control".into(),
                });
            }
        }

        // R9: lock acquisition / blocking I/O inside island-reachable
        // fn bodies (spans come from the run_island call graph).
        if line > 0 && scopes.in_island(path, line) {
            let is_call = text(i + 1) == Some("(");
            let is_method = text(i.wrapping_sub(1)) == Some(".");
            if (t == "lock" || t == "try_lock") && is_call && is_method {
                out.push(Match {
                    rule: "R9",
                    col: tok.col,
                    message: format!(
                        ".{t}() in island-reachable code; islands are single-threaded — \
                         use Rc<RefCell<..>> and keep the handle inside the island"
                    ),
                });
            }
            if t == "sleep" && is_call {
                out.push(Match {
                    rule: "R9",
                    col: tok.col,
                    message: "blocking sleep in island-reachable code stalls a worker \
                              thread; advance SimTime instead"
                        .into(),
                });
            }
            if (t == "open" || t == "create")
                && is_call
                && text(i.wrapping_sub(1)) == Some(":")
                && text(i.wrapping_sub(3)) == Some("File")
            {
                out.push(Match {
                    rule: "R9",
                    col: tok.col,
                    message: "File I/O in island-reachable code blocks a worker thread; \
                              islands must stay compute-only"
                        .into(),
                });
            }
            if ISLAND_BLOCKING_TYPES.contains(&t) {
                out.push(Match {
                    rule: "R9",
                    col: tok.col,
                    message: format!(
                        "{t} in island-reachable code: network I/O blocks a worker \
                         thread; islands must stay compute-only"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tokenize;

    fn matches_on(path: &str, line: &str) -> Vec<&'static str> {
        check_line_scoped(path, 0, &tokenize(line), &Scopes::legacy())
            .into_iter()
            .map(|m| m.rule)
            .collect()
    }

    #[test]
    fn r3_matches_method_calls_not_lookalikes() {
        let p = "crates/flight/src/pid.rs";
        assert_eq!(matches_on(p, "x.unwrap()"), vec!["R3"]);
        assert_eq!(matches_on(p, "x.expect(\"boom\")"), vec!["R3"]);
        assert_eq!(matches_on(p, "panic!(\"boom\")"), vec!["R3"]);
        assert!(matches_on(p, "x.unwrap_or(0)").is_empty());
        assert!(matches_on(p, "x.expect_err(\"fine\")").is_empty());
        assert!(
            matches_on(p, "fn unwrap() {}").is_empty(),
            "not a method call"
        );
    }

    #[test]
    fn r4_numeric_casts_only_in_wire_files() {
        let wire = "crates/mavlink/src/codec.rs";
        assert_eq!(matches_on(wire, "let l = len as u8;"), vec!["R4"]);
        assert!(matches_on(wire, "use foo as bar;").is_empty());
        assert!(matches_on("crates/mavlink/src/wire.rs", "let l = len as u8;").is_empty());
    }

    #[test]
    fn r5_statics_but_not_lifetimes() {
        let p = "crates/simkern/src/x.rs";
        assert_eq!(matches_on(p, "static mut COUNT: u64 = 0;"), vec!["R5"]);
        assert_eq!(
            matches_on(
                p,
                "pub static TABLE: Mutex<Vec<u32>> = Mutex::new(Vec::new());"
            ),
            vec!["R5"]
        );
        assert!(matches_on(p, "fn f(s: &'static str) {}").is_empty());
        assert!(matches_on(p, "static NAMES: [&str; 2] = [\"a\", \"b\"];").is_empty());
        // R5 binds in every crate, not only the simulation's.
        assert_eq!(
            matches_on(
                "crates/sdk/src/x.rs",
                "static HITS: AtomicU64 = AtomicU64::new(0);"
            ),
            vec!["R5"]
        );
    }

    fn island_scopes(path: &str, span: (usize, usize)) -> Scopes {
        let mut scopes = Scopes::legacy();
        scopes.island_spans.insert(path.to_string(), vec![span]);
        scopes
    }

    fn matches_in_island(line_text: &str) -> Vec<&'static str> {
        let p = "crates/core/src/fleet.rs";
        let scopes = island_scopes(p, (10, 20));
        check_line_scoped(p, 15, &tokenize(line_text), &scopes)
            .into_iter()
            .map(|m| m.rule)
            .collect()
    }

    #[test]
    fn r9_flags_locks_and_blocking_io_inside_island_spans() {
        assert_eq!(matches_in_island("let k = kernel.lock();"), vec!["R9"]);
        assert_eq!(
            matches_in_island("if let Some(g) = m.try_lock() {"),
            vec!["R9"]
        );
        assert_eq!(
            matches_in_island("thread::sleep(Duration::from_millis(5));"),
            vec!["R9"]
        );
        assert_eq!(matches_in_island("let f = File::open(path)?;"), vec!["R9"]);
        assert_eq!(
            matches_in_island("let s = TcpStream::connect(addr)?;"),
            vec!["R9"]
        );
    }

    #[test]
    fn r9_ignores_lookalikes_and_lines_outside_the_span() {
        // `lock` as a field or a free fn is not a lock acquisition.
        assert!(matches_in_island("let l = self.lock;").is_empty());
        assert!(matches_in_island("fn lock() {}").is_empty());
        // Same tokens outside the island span stay clean.
        let p = "crates/core/src/fleet.rs";
        let scopes = island_scopes(p, (10, 20));
        assert!(check_line_scoped(p, 30, &tokenize("let k = kernel.lock();"), &scopes).is_empty());
        // Line 0 (single-line entry points) disables R9 entirely.
        assert!(check_line_scoped(p, 0, &tokenize("let k = kernel.lock();"), &scopes).is_empty());
    }
}
