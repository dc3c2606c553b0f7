//! Fixture-driven integration tests: each seeded-violation fixture is
//! linted under a pretend in-scope path and must produce exactly the
//! expected rule ids at the expected lines.

use dronelint::{scan_source, scan_workspace};

fn hits(path: &str, fixture: &str) -> Vec<(&'static str, usize)> {
    scan_source(path, fixture)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn r3_fixture_flags_panic_paths() {
    let got = hits(
        "crates/flight/src/bad_panic.rs",
        include_str!("fixtures/r3_panic.rs"),
    );
    assert_eq!(got, vec![("R3", 4), ("R3", 8), ("R3", 12)]);
}

#[test]
fn r4_fixture_flags_bare_casts() {
    let got = hits(
        "crates/mavlink/src/codec.rs",
        include_str!("fixtures/r4_casts.rs"),
    );
    assert_eq!(got, vec![("R4", 4), ("R4", 8)]);
}

#[test]
fn r5_fixture_flags_mutable_globals() {
    let got = hits(
        "crates/binder/src/bad_globals.rs",
        include_str!("fixtures/r5_statics.rs"),
    );
    assert_eq!(got, vec![("R5", 3), ("R5", 5)]);
}

#[test]
fn clean_fixture_produces_nothing() {
    let got = hits(
        "crates/simkern/src/good.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn suppression_covers_exactly_one_line() {
    // Lines 3 (same-line allow) and 6 (carried allow) are suppressed;
    // the static on line 9 is not.
    let got = hits(
        "crates/vdc/src/suppressed.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    assert_eq!(got, vec![("R5", 9)]);
}

#[test]
fn fixtures_out_of_scope_paths_do_not_fire() {
    // The same seeded text under an unscoped path is silent: R3 binds
    // to hot-path files and R4 to the wire files. R5 binds to every
    // crate, so its fixture fires anywhere.
    assert!(hits("crates/sdk/src/x.rs", include_str!("fixtures/r3_panic.rs")).is_empty());
    assert!(hits("crates/sdk/src/x.rs", include_str!("fixtures/r4_casts.rs")).is_empty());
    assert_eq!(
        hits(
            "crates/sdk/src/x.rs",
            include_str!("fixtures/r5_statics.rs")
        ),
        vec![("R5", 3), ("R5", 5)]
    );
}

#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = scan_workspace(&root).expect("scan");
    assert!(
        violations.is_empty(),
        "lint violations in the workspace: {violations:#?}"
    );
}
