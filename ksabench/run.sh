#!/usr/bin/env bash
# Builds ksabench from the checkout's source and runs it with the given
# arguments, from the checkout root. Everything the build and the run write
# (Go build cache, temporary stores, traced-run reports) stays under
# .bench_build in the checkout.
#
#   bash ksabench/run.sh --workload sweep-cold --seed 42 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/home/gomod" GOPATH="$out/home/go" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOENV=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/ksabench" && go build -o "$out/ksabench" .)
cd "$root"
exec "$out/ksabench" "$@"
