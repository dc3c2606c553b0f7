//! Fixture-driven integration tests: each seeded-violation fixture is
//! linted under a pretend in-scope path and must produce exactly the
//! expected rule ids at the expected lines.

use dronelint::{scan_source, scan_workspace, Baseline};

fn hits(path: &str, fixture: &str) -> Vec<(&'static str, usize)> {
    scan_source(path, fixture)
        .into_iter()
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn r1_fixture_flags_hash_collections() {
    let got = hits(
        "crates/simkern/src/bad_collections.rs",
        include_str!("fixtures/r1_hashmap.rs"),
    );
    assert_eq!(got, vec![("R1", 3), ("R1", 6), ("R1", 9), ("R1", 10)]);
}

#[test]
fn r2_fixture_flags_wall_clock_and_entropy() {
    let got = hits(
        "crates/cloud/src/bad_time.rs",
        include_str!("fixtures/r2_wallclock.rs"),
    );
    assert_eq!(got, vec![("R2", 3), ("R2", 6), ("R2", 11), ("R2", 18)]);
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
fn r6_fixture_flags_alias_uses_not_the_definition() {
    let got = hits(
        "crates/simkern/src/bad_alias.rs",
        include_str!("fixtures/r6_alias.rs"),
    );
    // Lines 3 and 7 spell HashMap out (R1's catch); the laundered
    // name's uses on lines 9-10 are R6's.
    assert_eq!(got, vec![("R1", 3), ("R1", 7), ("R6", 9), ("R6", 10)]);
}

#[test]
fn r7_fixture_flags_the_collections_glob() {
    let got = hits(
        "crates/simkern/src/bad_glob.rs",
        include_str!("fixtures/r7_glob.rs"),
    );
    assert_eq!(got, vec![("R7", 3)]);
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
    // the call on line 9 is not.
    let got = hits(
        "crates/vdc/src/suppressed.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    assert_eq!(got, vec![("R1", 9)]);
}

#[test]
fn fixtures_out_of_scope_paths_do_not_fire() {
    // The same seeded text under an unscoped path is silent: R1/R5
    // only bind to sim crates (which, since lint v2, include cloud —
    // so the neutral path lives in the sdk crate), R4 only to the
    // wire files.
    assert!(hits(
        "crates/sdk/src/x.rs",
        include_str!("fixtures/r1_hashmap.rs")
    )
    .is_empty());
    assert!(hits("crates/sdk/src/x.rs", include_str!("fixtures/r4_casts.rs")).is_empty());
    assert!(hits(
        "crates/sdk/src/x.rs",
        include_str!("fixtures/r5_statics.rs")
    )
    .is_empty());
    assert!(hits("crates/sdk/src/x.rs", include_str!("fixtures/r6_alias.rs")).is_empty());
    assert!(hits("crates/sdk/src/x.rs", include_str!("fixtures/r7_glob.rs")).is_empty());
}

#[test]
fn baseline_ratchet_absorbs_then_demands_cleanup() {
    let violations = scan_source(
        "crates/mavlink/src/codec.rs",
        include_str!("fixtures/r4_casts.rs"),
    );
    assert_eq!(violations.len(), 2);

    // A baseline covering both: lint passes, nothing new.
    let covering = Baseline::parse(
        r#"{"entries": [
            {"rule": "R4", "path": "crates/mavlink/src/codec.rs", "snippet": "payload.len() as u8"},
            {"rule": "R4", "path": "crates/mavlink/src/codec.rs", "snippet": "x as u16"}
        ]}"#,
    )
    .expect("parse");
    let r = covering.reconcile(violations.clone());
    assert!(r.new.is_empty());
    assert_eq!(r.baselined, 2);
    assert!(r.stale.is_empty());

    // Fix one violation (drop it from the scan): its entry goes
    // stale and the lint fails until the baseline shrinks.
    let r = covering.reconcile(violations[..1].to_vec());
    assert_eq!(r.baselined, 1);
    assert_eq!(r.stale.len(), 1);
    assert_eq!(r.stale[0].snippet, "x as u16");

    // A new violation is never absorbed by an unrelated entry.
    let r = covering.reconcile(
        violations
            .into_iter()
            .chain(scan_source(
                "crates/mavlink/src/crc.rs",
                "pub fn f(x: u16) -> u8 { x as u8 }\n",
            ))
            .collect(),
    );
    assert_eq!(r.new.len(), 1);
    assert_eq!(r.new[0].path, "crates/mavlink/src/crc.rs");
}

#[test]
fn workspace_is_clean_under_the_checked_in_baseline() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = scan_workspace(&root).expect("scan");
    let baseline = match std::fs::read_to_string(root.join("dronelint.baseline.json")) {
        Ok(text) => Baseline::parse(&text).expect("baseline parses"),
        Err(_) => Baseline::default(),
    };
    let r = baseline.reconcile(violations);
    assert!(
        r.new.is_empty(),
        "new lint violations in the workspace: {:#?}",
        r.new
    );
    assert!(
        r.stale.is_empty(),
        "stale baseline entries (violations fixed — shrink the baseline): {:#?}",
        r.stale
    );
}
