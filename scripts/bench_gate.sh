#!/usr/bin/env bash
# Benchmark correctness gate: run every ksabench workload once, briefly, and
# fail unless each run reports correct outputs and no failed op. Timings,
# per-layer counts and allocation are printed but not gated.
#
# Usage: scripts/bench_gate.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
status=0
for w in sweep-cold sweep-warm density cluster-bsp; do
  echo "== ksabench $w"
  last=$(bash "$root/ksabench/run.sh" --workload "$w" --seed 42 --seconds 1 --trace 0 | tail -1)
  echo "$last"
  if ! jq -e '.correct == true and .failed == 0' <<<"$last" >/dev/null; then
    echo "FAIL: $w reported incorrect output or failed ops" >&2
    status=1
  fi
done
exit "$status"
