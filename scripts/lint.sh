#!/usr/bin/env bash
# Determinism/safety lint + dual-run sanitizer gate.
#
# 1. dronelint: item-graph rules R1-R10 over the workspace, reconciled
#    against dronelint.baseline.json (new violations or stale entries
#    fail; the baseline only shrinks). The machine-readable report —
#    violations plus call-graph statistics — is written to
#    target/dronelint-report.json for CI to upload.
# 2. dronelint --self-check: the lint crate itself must be clean under
#    its own rules, with no baseline escape hatch.
# 3. The state-hash sanitizer: runs the full-system mission twice
#    under one seed and scans to the first divergent tick if the
#    per-second component hashes ever differ.
# 4. The dependency-use guard: every `[dependencies]` entry of a
#    `crates/*/Cargo.toml` must be named (as its `snake_case` crate
#    identifier) under that crate's `src/` or `benches/`, and every
#    `[dev-dependencies]` entry under `src/`, `tests/`, `benches/` or
#    a `[[test]]`/`[[example]]`/`[[bench]]` path the manifest lists.
#
# Usage: scripts/lint.sh                 run the full gate
#        scripts/lint.sh --explain R<N>  print one rule's rationale
#                                        and example fix, then exit

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

echo "== dronelint (rules R1-R10, inferred scopes, ratcheted baseline) =="
mkdir -p target
cargo run -q -p dronelint -- --out target/dronelint-report.json

echo "== dronelint self-check (crates/dronelint under its own rules) =="
cargo run -q -p dronelint -- --self-check

echo "== dual-run determinism sanitizer =="
cargo test -q -p androne --test determinism
