#!/usr/bin/env bash
# mutants.sh — mutation check of internal/rspq's test suite. Each patch
# under scripts/mutants/ plants one known bug in the query kernels (a
# fix reverted, a probe or a walk step weakened); the script applies it
# to a temporary copy of the tree and requires `go test ./internal/rspq/`
# to fail, naming the tests that caught it. The mutated tree must build
# first: a failure to compile checks nothing. It exits non-zero when a
# mutation survives, or its patch no longer applies or builds.
#
#   bash scripts/mutants.sh [tree]     # tree: the checkout to mutate (default: this one)
set -uo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
tree="$(cd "${1:-$root}" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
for patch in "$root"/scripts/mutants/*.patch; do
	name="$(basename "$patch" .patch)"
	rm -rf "$work/tree" && mkdir "$work/tree"
	tar -C "$tree" --exclude=.git --exclude=.bench_build --exclude=bench/out -cf - . | tar -C "$work/tree" -xf -
	if ! patch -s -d "$work/tree" -p1 <"$patch"; then
		echo "mutants: $name: the patch no longer applies"
		status=1
		continue
	fi
	if ! (cd "$work/tree" && go test -count=1 -run '^$' ./internal/rspq/ >"$work/log" 2>&1); then
		echo "mutants: $name: the mutated tree does not build:"
		sed 's/^/  /' "$work/log"
		status=1
		continue
	fi
	if (cd "$work/tree" && go test -count=1 -timeout 300s ./internal/rspq/ >"$work/log" 2>&1); then
		echo "mutants: $name: SURVIVED — go test ./internal/rspq/ passes with it"
		status=1
	else
		caught="$(grep -oE '^--- FAIL: [^ ]+' "$work/log" | cut -d' ' -f3 | sort -u | tr '\n' ' ')"
		echo "mutants: $name: caught by ${caught:-$(grep -m1 -E '^panic' "$work/log")}"
	fi
done
exit $status
