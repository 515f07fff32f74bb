#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it, passing the
# arguments through (--workload, --seed, --seconds, --trace). Run from
# the repository root. Everything it writes stays under the build
# directory: the Go build cache, the binary, spans and results.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
out=$out/perfbench
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
