#!/usr/bin/env sh
# Runs the repo's full static-invariant gate, the same sequence CI's lint
# job runs:
#
#   1. go vet              — the stock toolchain analyzers;
#   2. repolint ./...      — the repolint suite (determinism, hotpath,
#                            poolcheck, floatconst) over the go-list
#                            loader;
#   3. repolint -escape    — the go build -gcflags=-m escape-analysis
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

echo "lint: go vet $pkgs"
go vet $pkgs

echo "lint: repolint $pkgs"
"$tool" $pkgs

echo "lint: repolint -escape $pkgs"
"$tool" -escape $pkgs

echo "lint: clean"
