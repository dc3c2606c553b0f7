//! The lint rules (R1–R10) and their scoping.
//!
//! Every line rule is token-level. Rules apply to non-test code only:
//! `#[cfg(test)]` / `#[test]` regions are exempt, because tests
//! legitimately compare against `HashMap`s, call `unwrap()`, and
//! panic on assertion failure. R6 is the one line rule with
//! file-level state: alias *definitions* are collected from the whole
//! file (test regions included — a test-only alias can still be used
//! in live code), then uses are flagged line by line.
//!
//! R3/R4/R9 scoping comes from a [`Scopes`] value. The workspace
//! analysis derives one by call-graph reachability (see
//! [`crate::graph`]); [`Scopes::legacy`] reproduces the pre-inference
//! hardcoded lists for fixture tests and the superset pin.

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::Token;

/// Crates whose state participates in the deterministic simulation.
/// Iteration order and hashing inside these crates is
/// experiment-visible — `cloud` and `planner` joined the list once
/// `execute_fleet`'s ordered merge began replaying cloud effects in
/// plan order, and `workloads` once seed-generated attack plans
/// started driving the adversarial gate.
pub const SIM_CRATES: &[&str] = &[
    "simkern",
    "binder",
    "flight",
    "vdc",
    "core",
    "mavlink",
    "obs",
    "cloud",
    "planner",
    "workloads",
];

/// The audited home for RNG construction: the one file in the sim
/// crates allowed to call `SmallRng::seed_from_u64` & co (R10).
pub const RNG_HOME: &str = "crates/simkern/src/rng.rs";

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
    /// Stable rule id ("R1".."R10").
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
        id: "R1",
        name: "nondeterministic-collection",
        rationale: "HashMap/HashSet iteration order varies per process (SipHash random keys); \
                    sim-state crates must use BTreeMap/BTreeSet or a slab",
        fix: "replace `HashMap<K, V>` with `BTreeMap<K, V>` (or a slab keyed by insertion \
              index when ordering is the point)",
    },
    RuleInfo {
        id: "R2",
        name: "wall-clock-or-entropy",
        rationale: "Instant/SystemTime/thread_rng read host state, breaking seed-stability; \
                    use SimTime and the kernel's seeded RNG",
        fix: "replace `Instant::now()` with `kernel.now()` (SimTime) and `thread_rng()` with \
              a stream from `simkern::rng`",
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
        id: "R6",
        name: "alias-laundered-collection",
        rationale: "a type alias over HashMap/HashSet (`type Fast = HashMap<..>`) launders \
                    the nondeterministic collection past R1's name check; the iteration \
                    order is just as random under the new name",
        fix: "alias a deterministic collection instead: `type Fast = BTreeMap<K, V>`",
    },
    RuleInfo {
        id: "R7",
        name: "collections-glob-import",
        rationale: "`use std::collections::*` pulls HashMap/HashSet into scope invisibly, \
                    so a later bare `HashMap` reads as a local name; import deterministic \
                    collections explicitly",
        fix: "write `use std::collections::{BTreeMap, BTreeSet};`",
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
    RuleInfo {
        id: "R10",
        name: "adhoc-rng-stream",
        rationale: "an RNG constructed outside simkern::rng (`SmallRng::seed_from_u64(seed \
                    + 1)` and friends) collides with the audited stream families and \
                    silently perturbs every digest downstream; all streams must derive \
                    from substream_seed or the dedicated fault/attack/adversary streams — \
                    the adversary feedback stream (attacker brains) and the refill-jitter \
                    stream (defense) funnel through the same home, so closed-loop \
                    adversaries can never perturb kernel or board draws",
        fix: "call `simkern::rng::stream_rng(substream_seed(root, stream, index))` (or the \
              fault-, attack-, rt-monitor-, adversary- or refill-jitter-stream \
              constructors) instead of SmallRng::seed_from_u64",
    },
];

/// Returns the crate name for a repo-relative path like
/// `crates/<name>/src/...`.
fn crate_of(path: &str) -> Option<&str> {
    path.strip_prefix("crates/")?.split('/').next()
}

fn in_sim_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| SIM_CRATES.contains(&c))
}

fn r2_applies(path: &str) -> bool {
    // Benches measure host time by design; scripts are not simulation
    // state. Everything else in the workspace is in scope.
    crate_of(path) != Some("bench") && !path.starts_with("scripts/")
}

/// A single rule match on one line (before suppression/baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Rule id ("R1".."R10").
    pub rule: &'static str,
    /// 1-based column.
    pub col: usize,
    /// Violation message.
    pub message: String,
}

/// If this line defines a type alias whose right-hand side names a
/// HashMap/HashSet (`type Fast = HashMap<u32, u32>;`,
/// `pub type Seen<T> = std::collections::HashSet<T>;`), returns the
/// alias name. Definitions are collected file-wide — including test
/// regions, since a test-defined alias is still usable from live
/// code in the same module tree.
pub fn hash_alias_name(tokens: &[Token]) -> Option<String> {
    let type_at = tokens.iter().position(|t| t.text == "type")?;
    let name = tokens.get(type_at + 1)?;
    if !name
        .text
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
    {
        return None;
    }
    let eq_at = tokens[type_at..].iter().position(|t| t.text == "=")? + type_at;
    let launders = tokens[eq_at..]
        .iter()
        .any(|t| t.text == "HashMap" || t.text == "HashSet");
    launders.then(|| name.text.clone())
}

/// Runs every applicable rule over one tokenized line under legacy
/// scoping, with no file-level alias context (R6 needs
/// [`check_line_with_aliases`]).
pub fn check_line(path: &str, tokens: &[Token]) -> Vec<Match> {
    check_line_with_aliases(path, tokens, &BTreeSet::new())
}

/// Runs every applicable rule over one tokenized line under legacy
/// scoping. `hash_aliases` is the set of alias names this file
/// defines over HashMap/HashSet (from [`hash_alias_name`] over every
/// line).
pub fn check_line_with_aliases(
    path: &str,
    tokens: &[Token],
    hash_aliases: &BTreeSet<String>,
) -> Vec<Match> {
    check_line_scoped(path, 0, tokens, hash_aliases, &Scopes::legacy())
}

/// Blocking-I/O idents R9 bans outright inside island spans.
const ISLAND_BLOCKING_TYPES: &[&str] = &["TcpStream", "UdpSocket", "TcpListener"];

/// Runs every applicable rule over one tokenized line. `line` is the
/// 1-based line number (0 disables the line-scoped R9 check), and
/// `scopes` supplies the R3/R4/R9 binding.
pub fn check_line_scoped(
    path: &str,
    line: usize,
    tokens: &[Token],
    hash_aliases: &BTreeSet<String>,
    scopes: &Scopes,
) -> Vec<Match> {
    let mut out = Vec::new();
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    // R6 skips the defining line itself: R1 already flags the
    // HashMap/HashSet spelled out on the right-hand side.
    let defines_alias = hash_alias_name(tokens);

    for (i, tok) in tokens.iter().enumerate() {
        let t = tok.text.as_str();

        // R1: nondeterministic collections in sim-state crates.
        if in_sim_crate(path) && (t == "HashMap" || t == "HashSet") {
            out.push(Match {
                rule: "R1",
                col: tok.col,
                message: format!("{t} in a sim-state crate: iteration order is not deterministic; use BTreeMap/BTreeSet or a slab"),
            });
        }

        // R6: use of a type alias that launders a HashMap/HashSet.
        if in_sim_crate(path) && hash_aliases.contains(t) && defines_alias.as_deref() != Some(t) {
            out.push(Match {
                rule: "R6",
                col: tok.col,
                message: format!(
                    "`{t}` is a type alias over HashMap/HashSet; the iteration order is \
                     still nondeterministic under the new name"
                ),
            });
        }

        // R7: glob import of std::collections in sim-state crates.
        if in_sim_crate(path)
            && t == "collections"
            && text(i + 1) == Some(":")
            && text(i + 2) == Some(":")
            && text(i + 3) == Some("*")
        {
            out.push(Match {
                rule: "R7",
                col: tok.col,
                message: "glob import of std::collections in a sim-state crate hides \
                          HashMap/HashSet behind the wildcard; import BTree collections by name"
                    .into(),
            });
        }

        // R2: wall clock / host entropy outside bench code.
        if r2_applies(path) {
            let banned = match t {
                "Instant" => Some("std::time::Instant reads the host clock"),
                "SystemTime" => Some("SystemTime reads the host clock"),
                "thread_rng" => Some("thread_rng draws host entropy"),
                "from_entropy" => Some("from_entropy seeds from host entropy"),
                _ => None,
            };
            if let Some(why) = banned {
                out.push(Match {
                    rule: "R2",
                    col: tok.col,
                    message: format!("{why}; use SimTime / a seeded SmallRng"),
                });
            }
        }

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

        // R5: mutable globals in sim-state crates.
        if in_sim_crate(path) && t == "static" && text(i.wrapping_sub(1)) != Some("'") {
            if text(i + 1) == Some("mut") {
                out.push(Match {
                    rule: "R5",
                    col: tok.col,
                    message: "static mut in a sim-state crate: unsynchronized global mutable state"
                        .into(),
                });
            } else if tokens
                .iter()
                .any(|t2| INTERIOR_MUT.contains(&t2.text.as_str()))
            {
                out.push(Match {
                    rule: "R5",
                    col: tok.col,
                    message: "static with interior mutability in a sim-state crate: shared mutable state outside the seed's control".into(),
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

        // R10: RNG construction outside the sanctioned home, in
        // sim-state crates. `from_entropy` is R2's (host entropy).
        if in_sim_crate(path)
            && path != RNG_HOME
            && (t == "seed_from_u64" || t == "from_seed" || t == "from_rng")
            && text(i + 1) == Some("(")
        {
            out.push(Match {
                rule: "R10",
                col: tok.col,
                message: format!(
                    "{t} outside simkern::rng constructs an ad-hoc RNG stream; derive the \
                     seed via substream_seed and construct through the rng module's funnels"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::tokenize;

    fn matches_on(path: &str, line: &str) -> Vec<&'static str> {
        check_line(path, &tokenize(line))
            .into_iter()
            .map(|m| m.rule)
            .collect()
    }

    #[test]
    fn r1_fires_only_in_sim_crates() {
        assert_eq!(
            matches_on("crates/simkern/src/x.rs", "let m: HashMap<u32, u32>;"),
            vec!["R1"]
        );
        // cloud joined SIM_CRATES in lint v2; the sdk crate stays out.
        assert_eq!(
            matches_on("crates/cloud/src/x.rs", "let m: HashMap<u32, u32>;"),
            vec!["R1"]
        );
        assert!(matches_on("crates/sdk/src/x.rs", "let m: HashMap<u32, u32>;").is_empty());
    }

    #[test]
    fn r2_exempts_bench() {
        assert_eq!(
            matches_on("crates/cloud/src/x.rs", "let t = Instant::now();"),
            vec!["R2"]
        );
        assert!(matches_on("crates/bench/benches/x.rs", "let t = Instant::now();").is_empty());
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
    fn r6_alias_definitions_are_recognized() {
        assert_eq!(
            hash_alias_name(&tokenize("type Fast = HashMap<u32, u32>;")).as_deref(),
            Some("Fast")
        );
        assert_eq!(
            hash_alias_name(&tokenize(
                "pub type Seen<T> = std::collections::HashSet<T>;"
            ))
            .as_deref(),
            Some("Seen")
        );
        assert!(hash_alias_name(&tokenize("type Slab = BTreeMap<u32, u32>;")).is_none());
        assert!(hash_alias_name(&tokenize("let x = HashMap::new();")).is_none());
        // `=` before `type` must not satisfy the pattern.
        assert!(hash_alias_name(&tokenize("let t = ty; type A = B;")).is_none());
    }

    #[test]
    fn r6_flags_alias_use_but_not_the_definition() {
        let aliases: BTreeSet<String> = ["Fast".to_string()].into_iter().collect();
        let p = "crates/simkern/src/x.rs";
        let on_use: Vec<&str> =
            check_line_with_aliases(p, &tokenize("let m: Fast = Fast::new();"), &aliases)
                .into_iter()
                .map(|m| m.rule)
                .collect();
        assert_eq!(on_use, vec!["R6", "R6"], "both mentions flagged");
        // The defining line is R1's to flag (HashMap is spelled out),
        // not R6's.
        let on_def: Vec<&str> =
            check_line_with_aliases(p, &tokenize("type Fast = HashMap<u32, u32>;"), &aliases)
                .into_iter()
                .map(|m| m.rule)
                .collect();
        assert_eq!(on_def, vec!["R1"]);
        // Outside sim crates the alias is fine.
        assert!(check_line_with_aliases(
            "crates/sdk/src/x.rs",
            &tokenize("let m: Fast = Fast::new();"),
            &aliases
        )
        .is_empty());
    }

    #[test]
    fn r7_collections_glob_only_in_sim_crates() {
        assert_eq!(
            matches_on("crates/simkern/src/x.rs", "use std::collections::*;"),
            vec!["R7"]
        );
        assert!(matches_on("crates/sdk/src/x.rs", "use std::collections::*;").is_empty());
        // Named imports of deterministic collections stay clean.
        assert!(matches_on(
            "crates/simkern/src/x.rs",
            "use std::collections::{BTreeMap, BTreeSet};"
        )
        .is_empty());
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
    }

    fn island_scopes(path: &str, span: (usize, usize)) -> Scopes {
        let mut scopes = Scopes::legacy();
        scopes.island_spans.insert(path.to_string(), vec![span]);
        scopes
    }

    fn matches_in_island(line_text: &str) -> Vec<&'static str> {
        let p = "crates/core/src/fleet.rs";
        let scopes = island_scopes(p, (10, 20));
        check_line_scoped(p, 15, &tokenize(line_text), &BTreeSet::new(), &scopes)
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
        assert!(check_line_scoped(
            p,
            30,
            &tokenize("let k = kernel.lock();"),
            &BTreeSet::new(),
            &scopes
        )
        .is_empty());
        // Line 0 (single-line entry points) disables R9 entirely.
        assert!(check_line_scoped(
            p,
            0,
            &tokenize("let k = kernel.lock();"),
            &BTreeSet::new(),
            &scopes
        )
        .is_empty());
    }

    #[test]
    fn r10_rng_construction_allowed_only_in_the_rng_home() {
        let line = "let rng = SmallRng::seed_from_u64(seed);";
        assert_eq!(
            matches_on("crates/simkern/src/faults.rs", line),
            vec!["R10"]
        );
        assert_eq!(matches_on("crates/planner/src/vrp.rs", line), vec!["R10"]);
        // The adversary feedback stream funnels through the same
        // home: a brain constructing its own RNG in workloads would
        // be an ad-hoc stream like any other.
        assert_eq!(
            matches_on("crates/workloads/src/adaptive.rs", line),
            vec!["R10"]
        );
        assert!(matches_on(RNG_HOME, line).is_empty(), "the funnel itself");
        assert!(
            matches_on("crates/sdk/src/x.rs", line).is_empty(),
            "non-sim crates keep their freedom"
        );
        // Mentioning the name without calling it is fine.
        assert!(matches_on("crates/simkern/src/faults.rs", "use rand::SeedableRng;").is_empty());
    }
}
