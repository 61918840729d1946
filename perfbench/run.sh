#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload frame-threshold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off

if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1 && git -C "$root" rev-parse HEAD >"$build/REVISION.tmp" 2>/dev/null; then
	mv "$build/REVISION.tmp" "$build/REVISION"
else
	rm -f "$build/REVISION.tmp" "$build/REVISION"
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
