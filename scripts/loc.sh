#!/usr/bin/env bash
# loc.sh — non-test Go lines (`wc -l` of every *.go that is not *_test.go):
# one row per internal/* package, one for cmd/, and the total over the
# whole root module (examples/ and doc.go included). bench/ is its own
# module and is left out. `make loc` runs it; ROADMAP's "non-test LOC
# strictly down" acceptance compares the total line of two commits.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

count() { # lines in the non-test Go files under one directory
	find "$1" \( -path ./bench -o -path './.*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

for pkg in internal/*/; do
	printf '%7d  %s\n' "$(count "$pkg")" "${pkg%/}"
done
printf '%7d  cmd\n' "$(count cmd)"
printf '%7d  total (root module; bench/ excluded)\n' "$(count .)"
