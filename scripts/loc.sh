#!/usr/bin/env sh
# Prints the non-test Go line count the ROADMAP baseline is measured in:
# every tracked .go file except tests (_test.go), test fixtures (under a
# testdata/ directory) and the perfbench/ benchmark module. Counts the
# committed index, so run it after `git add` to include new files.
#
# Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '/testdata/' | grep -v '^perfbench/' |
	xargs cat | wc -l | tr -d ' '
