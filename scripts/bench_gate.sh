#!/usr/bin/env bash
# Benchmark gate: run every ksabench workload briefly at seed 42, once
# untraced and once traced, and fail when
#   - a run reports incorrect output or a failed op;
#   - the untraced run's alloc_mib_per_op exceeds the workload's value in
#     scripts/bench_expected.json by more than 3%;
#   - the untraced run's heap_live_p90_mib exceeds the workload's value
#     there by more than 15%, BENCHMARK.json's bound. Only sweep-warm and
#     cluster-bsp are heap-gated: their recorded runs spread by at most 7%
#     of the median (3.33-3.49 and 0.87-0.93 MiB). sweep-cold and density
#     have no heap value, because a set of three runs of each spread by
#     more than half the bound: sweep-cold 1.39-1.56 MiB (12%), density
#     0.47-0.62 MiB (26%);
#   - a count in the traced run differs from the workload's exact counts in
#     scripts/bench_expected.json.
# Timings are printed but not gated: they depend on the host.
#
# Usage: scripts/bench_gate.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
expected="$root/scripts/bench_expected.json"
status=0
fail() {
  echo "FAIL: $*" >&2
  status=1
}

for w in sweep-cold sweep-warm density cluster-bsp; do
  for trace in 0 1; do
    echo "== ksabench $w --trace $trace"
    last=$(bash "$root/ksabench/run.sh" --workload "$w" --seed 42 --seconds 1 --trace "$trace" | tail -1)
    echo "$last"
    if ! jq -e '.correct == true and .failed == 0' <<<"$last" >/dev/null; then
      fail "$w reported incorrect output or failed ops"
    fi
    if [ "$trace" = 0 ]; then
      over=$(jq -rn --argjson run "$last" --slurpfile exp "$expected" --arg w "$w" '
        $exp[0][$w] as $e
        | ($run.metrics.alloc_mib_per_op.value as $got
          | select($got > $e.alloc_mib_per_op * 1.03)
          | "alloc_mib_per_op \($got) > \($e.alloc_mib_per_op) + 3%"),
          ($run.metrics.heap_live_p90_mib.value as $got
          | select($e.heap_live_p90_mib != null and $got > $e.heap_live_p90_mib * 1.15)
          | "heap_live_p90_mib \($got) > \($e.heap_live_p90_mib) + 15%")')
    else
      over=$(jq -rn --argjson run "$last" --slurpfile exp "$expected" --arg w "$w" '
        $exp[0][$w].counts | to_entries[]
        | select($run.metrics[.key].value != .value)
        | "\(.key) \($run.metrics[.key].value) != \(.value)"')
    fi
    if [ -n "$over" ]; then
      fail "$w: $over"
    fi
  done
done
exit "$status"
