#!/usr/bin/env bash
# Gate the batch/tenancy ablation: the shared-basis batch must beat the
# sequential scan by >= 1.2x at equal aggregate memory, the DRR
# dispenser must fill each tenant exactly to (never past) its quota,
# and every replay — batch members vs solo runs, the interleaved
# multi-tenant service vs serial per-tenant services — must be
# bit-identical.
#
# Usage: scripts/gates/batch_tenancy.sh [json-dir]
#   json-dir holds bench_ablation_batch_tenancy.bench.json, written by
#   FOURINDEX_BENCH_SMOKE=1 FOURINDEX_BENCH_JSON_DIR=json-dir \
#     build/bench/bench_ablation_batch_tenancy
# Needs jq. Exits non-zero (printing the scalars) when the gate fails.
set -euo pipefail

JSON=${1:-bench-json}/bench_ablation_batch_tenancy.bench.json

jq -e '
  .scalars["scan.batched.speedup"] >= 1.2
  and .scalars["tenancy.quota_violations"] == 0
  and (.scalars["tenancy.tenant0.peak_bytes"]
       <= .scalars["tenancy.tenant0.quota_bytes"])
  and (.scalars["tenancy.tenant1.peak_bytes"]
       <= .scalars["tenancy.tenant1.quota_bytes"])
  and (.scalars["tenancy.tenant1.peak_bytes"]
       == .scalars["tenancy.tenant1.quota_bytes"])
  and .scalars["tenancy.fairness_ratio"] < 2.0
  and .scalars["identity.member_mismatches"] == 0
  and .scalars["identity.service_mismatches"] == 0
  and (.scalars["scan.batched.peak_global_bytes"]
       <= .scalars["scan.aggregate_bytes"])
' "$JSON" > /dev/null \
  || { echo "batch/tenancy ablation gate failed:"; jq '.scalars' "$JSON"; \
       exit 1; }
echo "batch/tenancy ablation:"
jq '.scalars' "$JSON"
