#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload jacobi-check --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, temporaries, the binary) stays under .bench_build/ in the
# current directory; the benchmark's own output goes to e2ebench/out/.
# The benchmark imports the repository's packages through the replace
# directive in e2ebench/go.mod, so it fails to build (and exits non-zero)
# when run outside a full checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -out "$here/out" "$@"
