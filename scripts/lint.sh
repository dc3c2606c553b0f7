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
#
# Usage: scripts/lint.sh                 run the full gate
#        scripts/lint.sh --explain R<N>  print one rule's rationale
#                                        and example fix, then exit

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--explain" ]]; then
    exec cargo run -q -p dronelint -- --explain "${2:?usage: scripts/lint.sh --explain R<N>}"
fi

echo "== dronelint (rules R1-R10, inferred scopes, ratcheted baseline) =="
mkdir -p target
cargo run -q -p dronelint -- --out target/dronelint-report.json

echo "== dronelint self-check (crates/dronelint under its own rules) =="
cargo run -q -p dronelint -- --self-check

echo "== dual-run determinism sanitizer =="
cargo test -q -p androne --test determinism
