#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): builds coaxperf
# with every Go artefact kept inside bench/out/, then hands it the
# arguments. coaxperf builds coaxserve itself, with the same environment.
#
#   bash bench/run.sh --seed 1                                   # all workloads, interleaved
#   bash bench/run.sh --workload scan-heap --seed 3 --seconds 16 --trace 0
#   bash bench/run.sh --workload scan-heap --seed 3 --seconds 16 --trace 1   # the traced, per-layer run
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$bench/out"
mkdir -p "$out/tmp"
# Nothing is read or written outside the checkout: build cache, temp files,
# module cache and the toolchain's own telemetry counters all live in out/.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$out/coaxperf" ./coaxperf) >&2
exec "$out/coaxperf" run --root "$(dirname "$bench")" "$@"
