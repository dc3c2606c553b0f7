//! Fixture-driven tests for the v2 graph rules: R8 island-boundary
//! purity, R9 no-lock/no-blocking-I/O in island-reachable code, and
//! R10 RNG stream discipline — exact line numbers, suppression-scope
//! coverage, and a baseline-ratchet test driven through the binary's
//! JSON output path.

use dronelint::{analyze_sources, scan_source, Violation};

fn pair(path: &str, text: &str) -> (String, String) {
    (path.to_string(), text.to_string())
}

fn rule_hits<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn r8_fixture_flags_the_nested_impure_type_with_its_chain() {
    let a = analyze_sources(&[pair(
        "crates/core/src/fleet.rs",
        include_str!("fixtures/r8_island_impure.rs"),
    )]);
    let r8 = rule_hits(&a.violations, "R8");
    assert_eq!(r8.len(), 1, "{:?}", a.violations);
    // Flagged at `Inner`'s definition — the type actually holding the
    // `Rc` — with the boundary-to-type provenance chain spelled out.
    assert_eq!(r8[0].line, 4);
    assert!(r8[0].message.contains("`Inner`"), "{}", r8[0].message);
    assert!(r8[0].message.contains("`Rc`"), "{}", r8[0].message);
    assert!(
        r8[0].message.contains("via Work -> Inner"),
        "{}",
        r8[0].message
    );
}

#[test]
fn r8_suppression_binds_to_the_definition_line_and_needs_a_reason() {
    let silenced = analyze_sources(&[pair(
        "crates/core/src/fleet.rs",
        "// dronelint:allow(R8, cache is rebuilt per worker, never crosses threads)\n\
         pub struct Work { cache: Rc<u32> }\n\
         pub fn run_island(work: Work) {}\n",
    )]);
    assert!(
        rule_hits(&silenced.violations, "R8").is_empty(),
        "{:?}",
        silenced.violations
    );

    // A reasonless allow suppresses nothing and is itself R0.
    let reasonless = analyze_sources(&[pair(
        "crates/core/src/fleet.rs",
        "// dronelint:allow(R8)\n\
         pub struct Work { cache: Rc<u32> }\n\
         pub fn run_island(work: Work) {}\n",
    )]);
    assert_eq!(rule_hits(&reasonless.violations, "R8").len(), 1);
    assert_eq!(rule_hits(&reasonless.violations, "R0").len(), 1);

    // The allow covers the definition line only — an allow parked on
    // some other type does not bleed over.
    let elsewhere = analyze_sources(&[pair(
        "crates/core/src/fleet.rs",
        "// dronelint:allow(R8, wrong type entirely)\n\
         pub struct Other { id: u64 }\n\
         pub struct Work { cache: Rc<u32> }\n\
         pub fn run_island(work: Work) {}\n",
    )]);
    let r8 = rule_hits(&elsewhere.violations, "R8");
    assert_eq!(r8.len(), 1);
    assert_eq!(r8[0].line, 3);
}

#[test]
fn r9_fixture_flags_locks_sleep_and_blocking_io_at_exact_lines() {
    let a = analyze_sources(&[pair(
        "crates/core/src/fleet.rs",
        include_str!("fixtures/r9_island_blocking.rs"),
    )]);
    let got: Vec<usize> = rule_hits(&a.violations, "R9")
        .iter()
        .map(|v| v.line)
        .collect();
    // Lines 5 (lock), 10 (sleep), 11 (File::open), 12 (TcpStream) are
    // island-reachable (`run_island` -> `helper`); the lock in
    // `off_island` (line 17) is outside every island span.
    assert_eq!(got, vec![5, 10, 11, 12], "{:?}", a.violations);
}

#[test]
fn r9_suppression_with_reason_silences_exactly_one_line() {
    let a = analyze_sources(&[pair(
        "crates/core/src/fleet.rs",
        "pub fn run_island(work: u64) -> u64 {\n\
         \x20   // dronelint:allow(R9, startup-only: pool is still single-threaded here)\n\
         \x20   let _guard = SHARED.lock();\n\
         \x20   let _again = SHARED.lock();\n\
         \x20   work\n\
         }\n",
    )]);
    let r9 = rule_hits(&a.violations, "R9");
    assert_eq!(r9.len(), 1, "{:?}", a.violations);
    assert_eq!(r9[0].line, 4, "the carried allow covers line 3 only");
}

#[test]
fn r10_fixture_flags_every_adhoc_rng_constructor() {
    let got: Vec<(&str, usize)> = scan_source(
        "crates/simkern/src/bad_rng.rs",
        include_str!("fixtures/r10_adhoc_rng.rs"),
    )
    .into_iter()
    .map(|v| (v.rule, v.line))
    .collect();
    assert_eq!(got, vec![("R10", 5), ("R10", 9), ("R10", 13)]);
}

#[test]
fn r10_exempts_the_rng_funnel_home_and_non_sim_crates() {
    let fixture = include_str!("fixtures/r10_adhoc_rng.rs");
    // `simkern::rng` is where the audited funnels live: constructing
    // RNGs there is the point.
    assert!(scan_source("crates/simkern/src/rng.rs", fixture).is_empty());
    // Outside SIM_CRATES the rule does not bind.
    assert!(scan_source("crates/sdk/src/x.rs", fixture).is_empty());
}

#[test]
fn r10_suppression_with_reason_silences_the_line() {
    let src = "// dronelint:allow(R10, golden-vector test harness needs the raw seed)\n\
               pub fn make(seed: u64) -> SmallRng { SmallRng::seed_from_u64(seed) }\n";
    assert!(scan_source("crates/simkern/src/x.rs", src).is_empty());
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key)
        .unwrap_or_else(|| panic!("report missing field {key:?}"))
}

fn num(v: &serde_json::Value, key: &str) -> f64 {
    field(v, key)
        .as_f64()
        .unwrap_or_else(|| panic!("field {key:?} is not a number"))
}

/// The JSON output path, end to end through the real binary: a seeded
/// violation is absorbed by a covering baseline (exit 0), reported
/// when the baseline is empty (exit 1), and its baseline entry goes
/// stale once the violation is fixed (exit 1) — all read back from
/// the `--out` report, which must stay valid JSON throughout.
#[test]
fn json_report_baseline_ratchet_via_the_binary() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_ratchet");
    let src_dir = tmp.join("crates/simkern/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let report = tmp.join("report.json");

    let run = |root: &std::path::Path, baseline: Option<&std::path::Path>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dronelint"));
        cmd.arg("--root").arg(root).arg("--out").arg(&report);
        if let Some(b) = baseline {
            cmd.arg("--baseline").arg(b);
        }
        let out = cmd.output().expect("run dronelint");
        let text = std::fs::read_to_string(&report).expect("report written");
        let json: serde_json::Value = serde_json::from_str(&text).expect("report is valid JSON");
        (out.status.code(), json)
    };

    std::fs::write(
        src_dir.join("bad.rs"),
        "pub fn f() { let m = HashMap::new(); }\n",
    )
    .expect("write");

    // Empty baseline: the violation is new, exit 1, and the report
    // carries both the diagnostic and the graph stats block.
    let (code, json) = run(&tmp, None);
    assert_eq!(code, Some(1));
    let v = field(&json, "violations")
        .as_array()
        .expect("violations array");
    assert_eq!(v.len(), 1);
    assert_eq!(field(&v[0], "rule").as_str(), Some("R1"));
    assert_eq!(
        field(&v[0], "path").as_str(),
        Some("crates/simkern/src/bad.rs")
    );
    assert_eq!(num(&v[0], "line"), 1.0);
    assert_eq!(num(&json, "baselined"), 0.0);
    assert_eq!(num(field(&json, "graph"), "files_scanned"), 1.0);

    // A covering baseline absorbs it: exit 0, empty violations.
    let baseline = tmp.join("baseline.json");
    std::fs::write(
        &baseline,
        r#"{"entries": [{"rule": "R1", "path": "crates/simkern/src/bad.rs", "snippet": "pub fn f() { let m = HashMap::new(); }"}]}"#,
    )
    .expect("write baseline");
    let (code, json) = run(&tmp, Some(&baseline));
    assert_eq!(code, Some(0), "{json:?}");
    assert_eq!(field(&json, "violations").as_array().map(Vec::len), Some(0));
    assert_eq!(num(&json, "baselined"), 1.0);

    // Fix the violation: the entry goes stale and the ratchet demands
    // the baseline shrink (exit 1 again).
    std::fs::write(src_dir.join("bad.rs"), "pub fn f() {}\n").expect("rewrite");
    let (code, json) = run(&tmp, Some(&baseline));
    assert_eq!(code, Some(1), "{json:?}");
    let stale = field(&json, "stale_baseline_entries")
        .as_array()
        .expect("stale array");
    assert_eq!(stale.len(), 1);
    assert_eq!(field(&stale[0], "rule").as_str(), Some("R1"));
}
