#!/usr/bin/env sh
# Runs the repo's full static-invariant gate, the same sequence CI's lint
# job runs:
#
#   1. gofmt -l            — every Go file under the repository root is
#                            gofmt-clean (perfbench's .bench_build/ cache
#                            excluded; the check ignores [packages]);
#   2. go vet              — the stock toolchain analyzers;
#   3. repolint ./...      — the repolint suite (determinism, hotpath,
#                            poolcheck, floatconst) over the go-list
#                            loader;
#   4. repolint -escape    — the go build -gcflags=-m escape-analysis
#                            cross-check over //repro:hotpath functions.
#
# Findings are suppressed only by //repro: directives carrying a written
# justification (see README "Invariants"); any unsuppressed finding exits
# non-zero. Usage: scripts/lint.sh [packages] (default ./...).
set -eu

cd "$(dirname "$0")/.."
pkgs="${*:-./...}"

tool="$(mktemp -d)/repolint"
trap 'rm -rf "$(dirname "$tool")"' EXIT
go build -o "$tool" ./cmd/repolint

echo "lint: gofmt -l"
unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "lint: not gofmt-clean (run gofmt -w on them):"
	echo "$unformatted"
	exit 1
fi

echo "lint: go vet $pkgs"
go vet $pkgs

echo "lint: repolint $pkgs"
"$tool" $pkgs

echo "lint: repolint -escape $pkgs"
"$tool" -escape $pkgs

echo "lint: clean"
