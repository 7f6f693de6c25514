#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload replay-warm --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # all four workloads, untraced then traced
#   bash bench/run.sh -compare base.jsonl change.jsonl
#
# Everything the build and the run write stays under bench/out/ (build
# cache, binary, traces), so a run leaves `git status` clean and touches
# nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/bench/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$out/bench" .)
if [ -z "${BENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
cd "$root"
exec "$out/bench" --out-dir bench/out "$@"
