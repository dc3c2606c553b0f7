#!/usr/bin/env bash
# Determinism/safety lint + dual-run sanitizer gate.
#
# 1. The dependency-use guard: every `[dependencies]` entry of a
#    `crates/*/Cargo.toml` must be named (as its `snake_case` crate
#    identifier) under that crate's `src/` or `benches/`, and every
#    `[dev-dependencies]` entry under `src/`, `tests/`, `benches/` or
#    a `[[test]]`/`[[example]]`/`[[bench]]` path the manifest lists.
# 2. clippy on every target with warnings denied. `crates/clippy.toml`
#    bans, on resolved paths, what only names a type or a function:
#    HashMap/HashSet (rules R1, R6, R7), Instant/SystemTime (R2) and
#    seed_from_u64 outside simkern::rng (R10). Its `reason` strings
#    carry the rule ids; exemptions are `#[expect(.., reason)]`, which
#    fail once stale.
# 3. dronelint: the item-graph rules R0, R3, R4, R5, R8 and R9 over
#    the workspace. The machine-readable report — violations plus
#    call-graph statistics — is written to
#    target/dronelint-report.json for CI to upload.
# 4. The state-hash sanitizer: runs the full-system mission twice
#    under one seed and scans to the first divergent tick if the
#    per-second component hashes ever differ.
#
# Usage: scripts/lint.sh                 run the full gate
#        scripts/lint.sh --explain R<N>  print one rule's rationale
#                                        and example fix, then exit
#                                        (R1, R2, R6, R7 and R10 point
#                                        to crates/clippy.toml)

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--explain" ]]; then
    exec cargo run -q -p dronelint -- --explain "${2:?usage: scripts/lint.sh --explain R<N>}"
fi

echo "== dependency-use guard (no crate declares a dependency it never names) =="
unused=0
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    targets=$(awk '/^\[\[(test|example|bench)\]\]/ { t = 1; next } /^\[/ { t = 0 }
        t && /^path *=/ { gsub(/^path *= *"|"$/, ""); print }' "$manifest")
    for section in dependencies dev-dependencies; do
        where=("$dir/src" "$dir/benches")
        if [[ $section == dev-dependencies ]]; then
            where+=("$dir/tests")
            for t in $targets; do where+=("$dir/$t"); done
        fi
        present=()
        for p in "${where[@]}"; do [[ -e $p ]] && present+=("$p"); done
        for dep in $(awk -v s="[$section]" '$0 == s { t = 1; next } /^\[/ { t = 0 }
            t && /^[A-Za-z0-9_-]+ *=/ { print $1 }' "$manifest"); do
            if ! grep -rqw --include='*.rs' "${dep//-/_}" "${present[@]}"; then
                echo "unused: $manifest [$section] $dep" >&2
                unused=1
            fi
        done
    done
done
if [[ $unused != 0 ]]; then
    echo "dependency-use guard FAIL: delete the declarations above" >&2
    exit 1
fi

echo "== clippy (crates/clippy.toml: R1, R2, R6, R7, R10 on resolved paths) =="
cargo clippy -q --all-targets -- -D warnings

echo "== dronelint (rules R0, R3, R4, R5, R8, R9, inferred scopes) =="
mkdir -p target
cargo run -q -p dronelint -- --out target/dronelint-report.json

echo "== dual-run determinism sanitizer =="
cargo test -q -p androne --test determinism
