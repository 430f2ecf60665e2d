#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark (a module of
# its own, bench/go.mod) against the repro module one directory up and
# runs it with the arguments given. Everything the build and the run
# write — Go build cache, temp files, binaries, rspqd data dirs — stays
# under .bench_build/ and bench/out/ of the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rspqd" ]; then
	echo "bench: $root is not a checkout of the repro module (no go.mod / cmd/rspqd)" >&2
	exit 2
fi
b="$root/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomod" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp"
export GOTOOLCHAIN=local CGO_ENABLED=0
cd "$here"
go build -o "$b/bench" .
cd "$root"
exec "$b/bench" -root "$root" "$@"
