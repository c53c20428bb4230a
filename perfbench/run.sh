#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with
# the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload whynot-closed --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --repeat 10 --workload serve-open --seconds 30
#
# The Go build cache, temporary files and the toolchain's own state
# stay inside .bench_build, so a run writes nothing outside the
# checkout. Without the repository's Go module next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOPATH="$out/gopath" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
