//! The superset pin: the reachability-inferred R3/R4 scopes must
//! cover everything the pre-v2 hardcoded lists named. Inference is
//! allowed to GROW the scope (that is the point — new hot-path files
//! are picked up automatically); a legacy file falling out of the
//! inferred scope means an entry point was renamed or the call-graph
//! resolution regressed, and this test is the alarm.

use dronelint::analyze_workspace;
use dronelint::rules::{LEGACY_R3_FILES, LEGACY_R3_PREFIXES, LEGACY_R4_FILES};

fn root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Whether the file has at least one non-test fn item. Files without
/// fns (`lib.rs` module rosters) have no bodies to panic in and
/// nothing for fn-granular reachability to find — they are exempt
/// from the coverage pin.
fn has_live_fns(rel: &str) -> bool {
    let Ok(source) = std::fs::read_to_string(root().join(rel)) else {
        return false;
    };
    let items = dronelint::items::parse_items(&dronelint::scan::preprocess(&source));
    items.fns.iter().any(|f| !f.in_test)
}

/// Workspace files (repo-relative, forward slashes) under a prefix.
fn files_under(prefix: &str) -> Vec<String> {
    let dir = root().join(prefix);
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let sub = format!("{}{}/", prefix, entry.file_name().to_string_lossy());
            out.extend(files_under(&sub));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(format!("{}{}", prefix, entry.file_name().to_string_lossy()));
        }
    }
    out
}

#[test]
fn inferred_r3_scope_covers_every_legacy_file() {
    let analysis = analyze_workspace(&root()).expect("scan");
    let mut missing = Vec::new();
    for file in LEGACY_R3_FILES {
        if root().join(file).exists() && has_live_fns(file) && !analysis.scopes.r3_applies(file) {
            missing.push(file.to_string());
        }
    }
    for prefix in LEGACY_R3_PREFIXES {
        for file in files_under(prefix) {
            if has_live_fns(&file) && !analysis.scopes.r3_applies(&file) {
                missing.push(file);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "legacy R3 files escaped the inferred scope (entry point renamed, or call \
         resolution regressed): {missing:#?}"
    );
}

#[test]
fn inferred_r4_scope_covers_every_legacy_file() {
    let analysis = analyze_workspace(&root()).expect("scan");
    let missing: Vec<&str> = LEGACY_R4_FILES
        .iter()
        .filter(|f| root().join(f).exists() && !analysis.scopes.r4_applies(f))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "legacy R4 files escaped the inferred scope: {missing:#?}"
    );
}

#[test]
fn inference_extends_beyond_the_legacy_lists() {
    // The whole point of v2: reachability finds hot-path files the
    // lists never named. At minimum the mavlink message decoder
    // (reachable from decode_payload) is new R4 scope, and the R3
    // scope strictly exceeds the legacy file count.
    let analysis = analyze_workspace(&root()).expect("scan");
    assert!(
        analysis.scopes.r4_applies("crates/mavlink/src/message.rs"),
        "message.rs hosts decode_payload and must be wire scope"
    );
    assert!(
        !analysis.scopes.r4_applies("crates/mavlink/src/wire.rs"),
        "wire.rs is the audited cast home, never in scope"
    );
    assert!(
        analysis.stats.r3_inferred_files > analysis.stats.r3_legacy_files,
        "inferred R3 scope ({}) should exceed the legacy list ({})",
        analysis.stats.r3_inferred_files,
        analysis.stats.r3_legacy_files
    );
}

#[test]
fn island_scope_and_graph_are_nonempty() {
    let analysis = analyze_workspace(&root()).expect("scan");
    assert!(analysis.stats.island_fns > 10, "{:?}", analysis.stats);
    assert!(analysis.stats.fn_nodes > 500, "{:?}", analysis.stats);
    assert!(analysis.stats.type_nodes > 100, "{:?}", analysis.stats);
    assert!(analysis.stats.call_edges > 500, "{:?}", analysis.stats);
    assert!(
        analysis
            .scopes
            .island_spans
            .contains_key("crates/core/src/fleet.rs"),
        "run_island's own file must carry island spans"
    );
}
