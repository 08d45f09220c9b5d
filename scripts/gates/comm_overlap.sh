#!/usr/bin/env bash
# Gate the comm/compute overlap ablation: the nonblocking pipelines must
# hide a nonzero amount of wire time, the exposed time must stay within
# the total transfer time, and overlap must never be slower than the
# blocking baseline — for both the unfused and fused-inner schedules.
#
# Usage: scripts/gates/comm_overlap.sh [json-dir]
#   json-dir holds bench_ablation_comm_overlap.bench.json, written by
#   FOURINDEX_BENCH_SMOKE=1 FOURINDEX_BENCH_JSON_DIR=json-dir \
#     build/bench/bench_ablation_comm_overlap
# Needs jq. Exits non-zero (printing the scalars) when the gate fails.
set -euo pipefail

JSON=${1:-bench-json}/bench_ablation_comm_overlap.bench.json

jq -e '
  .scalars["unfused.overlap.overlapped_s"] > 0
  and .scalars["fused_inner.overlap.overlapped_s"] > 0
  and (.scalars["unfused.overlap.exposed_s"]
       <= .scalars["unfused.overlap.total_comm_s"])
  and (.scalars["fused_inner.overlap.exposed_s"]
       <= .scalars["fused_inner.overlap.total_comm_s"])
  and (.scalars["unfused.overlap.sim_time_s"]
       <= .scalars["unfused.blocking.sim_time_s"])
  and (.scalars["fused_inner.overlap.sim_time_s"]
       <= .scalars["fused_inner.blocking.sim_time_s"])
' "$JSON" > /dev/null \
  || { echo "overlap ablation gate failed:"; jq '.scalars' "$JSON"; exit 1; }
echo "overlap ablation:"
jq '.scalars' "$JSON"
