#!/usr/bin/env bash
# Fleet throughput gate: run the parallel-wave-executor bench and
# regenerate BENCH_fleet_throughput.json.
#
# The bench first proves threads=1 and threads=4 produce bit-identical
# fleet + metrics digests, then times both as alternating pairs (the
# leading width flips every pair) and gates the median of the per-pair
# threads1/threads4 ratios, which the report lists as
# `speedup_4v1_pair_ratios`. The speedup floor is
# core-scaled: >=2.0x on hosts with >=4 cores, >=1.2x on 2-3 cores,
# and >=0.75x (an overhead bound, not a speedup) on a single core —
# the report's `acceptance` object records the host's core count and
# both floors so results stay comparable across machines. This script
# fails if the active floor did not hold.
#
# The bench then climbs the control-plane scaling ladder: 1k / 10k /
# 100k synthetic tenants pushed through batched admission, the
# sharded VDR, and the bin-packing planner to quiescence. The report's
# `scaling_ladder` object records each rung's wall-clock order
# throughput, p99 order->landing simulated latency, and peak queue
# depth; the 10k rung must be bit-identical across shards 1/4 and
# threads 1/4 and clear an absolute 10k orders/sec floor.
#
# Finally it flies a 600 sim-s hover flight and gates the per-second
# state digest's growth: the median digest ns per tick over the last
# 10% of ticks over the median over the first 10% must stay at or
# below 2 (`DIGEST_GROWTH_CEILING`; the report's `digest_growth`
# object, with the host's core count).
#
# Usage: scripts/fleet_bench.sh [scale]
#   scale: ANDRONE_BENCH_SCALE value (default 5; higher = faster,
#          noisier). Pass 1 for a full-fidelity run.

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-5}"
OUT="${ANDRONE_BENCH_OUT:-$PWD/BENCH_fleet_throughput.json}"

cargo build --release
ANDRONE_BENCH_SCALE="$SCALE" ANDRONE_BENCH_OUT="$OUT" \
    cargo bench --bench fleet_throughput

if ! grep -q '"scaling_ladder"' "$OUT"; then
    echo "fleet bench FAIL: report has no scaling_ladder section (see $OUT)" >&2
    exit 1
fi
if grep -q '"pass": true' "$OUT"; then
    echo "fleet bench PASS ($OUT)"
else
    echo "fleet bench FAIL: speedup, scaling-ladder or digest-growth gate not met (see $OUT)" >&2
    exit 1
fi
