#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from this
# checkout's sources and run it from the checkout root. Everything the
# build and the run write (Go build and module caches, binaries, stores,
# traces) stays under .bench_build/ inside the checkout, so the build
# needs no HOME and leaves nothing outside.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" GOWORK=off
(cd "$root/bench" && go build -o "$out/bin/bench" .)
cd "$root"
exec "$out/bin/bench" "$@"
