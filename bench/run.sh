#!/usr/bin/env bash
# Builds the benchmark (package ./bench of this module) and runs it with
# the given arguments: `go run ./bench "$@"`, except that everything the
# build writes — Go's build cache, temporary files, the binary — stays
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -C "$root" -o "$build/ffsva-bench" ./bench
exec "$build/ffsva-bench" "$@"
