#!/usr/bin/env bash
# Perf smoke: build release, run the zero-copy micro benches at a
# reduced sample count, and regenerate BENCH_binder_fanout.json.
#
# The report's `acceptance.pass` field records whether the gated
# speedups held (>=2x Binder echo round-trip, >=3x 8-client
# fan-out, >=1.8x cached parcel translation), each read as the
# median of at least 11 alternating-pair ratios; this script fails if
# they did not.
#
# Usage: scripts/perf_smoke.sh [scale]
#   scale: ANDRONE_BENCH_SCALE value (default 20; higher = faster,
#          noisier). Pass 1 for a full-fidelity run.

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-20}"
OUT="${ANDRONE_BENCH_OUT:-$PWD/BENCH_binder_fanout.json}"

cargo build --release
ANDRONE_BENCH_SCALE="$SCALE" ANDRONE_BENCH_OUT="$OUT" \
    cargo bench --bench binder_fanout

if grep -q '"pass": true' "$OUT"; then
    echo "perf smoke PASS ($OUT)"
else
    echo "perf smoke FAIL: acceptance gate not met (see $OUT)" >&2
    exit 1
fi
