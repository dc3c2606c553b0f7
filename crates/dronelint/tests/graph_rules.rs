//! Fixture-driven tests for the v2 graph rules: R8 island-boundary
//! purity and R9 no-lock/no-blocking-I/O in island-reachable code —
//! exact line numbers and suppression-scope coverage — plus the
//! binary's JSON report, driven end to end.

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
fn r5_suppression_with_reason_silences_the_line() {
    let src = "// dronelint:allow(R5, golden-vector test harness reads it once at startup)\n\
               pub static SEEN: AtomicU64 = AtomicU64::new(0);\n";
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

/// The JSON output path, end to end through the real binary: a
/// seeded violation is reported (exit 1) and fixing it makes the run
/// clean (exit 0) — both read back from the `--out` report, which
/// must stay valid JSON throughout.
#[test]
fn json_report_via_the_binary() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_report");
    let src_dir = tmp.join("crates/simkern/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    let report = tmp.join("report.json");

    let run = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dronelint"))
            .arg("--root")
            .arg(&tmp)
            .arg("--out")
            .arg(&report)
            .output()
            .expect("run dronelint");
        let text = std::fs::read_to_string(&report).expect("report written");
        let json: serde_json::Value = serde_json::from_str(&text).expect("report is valid JSON");
        (out.status.code(), json)
    };

    std::fs::write(src_dir.join("bad.rs"), "pub static mut TICKS: u64 = 0;\n").expect("write");

    // The violation fails the run, and the report carries both the
    // diagnostic and the graph stats block.
    let (code, json) = run();
    assert_eq!(code, Some(1));
    let v = field(&json, "violations")
        .as_array()
        .expect("violations array");
    assert_eq!(v.len(), 1);
    assert_eq!(field(&v[0], "rule").as_str(), Some("R5"));
    assert_eq!(
        field(&v[0], "path").as_str(),
        Some("crates/simkern/src/bad.rs")
    );
    assert_eq!(num(&v[0], "line"), 1.0);
    assert_eq!(num(field(&json, "graph"), "files_scanned"), 1.0);

    // Fixed: exit 0 and an empty violations array.
    std::fs::write(src_dir.join("bad.rs"), "pub fn f() {}\n").expect("rewrite");
    let (code, json) = run();
    assert_eq!(code, Some(0), "{json:?}");
    assert_eq!(field(&json, "violations").as_array().map(Vec::len), Some(0));
}
