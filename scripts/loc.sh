#!/usr/bin/env bash
# loc.sh [PARENT] — non-test Go lines (`wc -l` of every *.go that is not
# *_test.go): one row per internal/* package, one for cmd/, and the total
# over the whole root module (examples/ and doc.go included). bench/ is its
# own module and is left out. Given a git revision PARENT, it also counts
# that revision (from a `git archive` snapshot in a temporary directory,
# as report_identity.sh does) and prints the parent's total, the working
# tree's total and the delta — the figures ROADMAP's "non-test LOC
# strictly down" acceptance compares. `make loc PARENT=<rev>` runs it.
set -euo pipefail

parent=${1:-}
cd "$(git rev-parse --show-toplevel)"

count() { # lines in the non-test Go files under one directory
	find "$1" \( -path ./bench -o -path './.*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

for pkg in internal/*/; do
	printf '%7d  %s\n' "$(count "$pkg")" "${pkg%/}"
done
printf '%7d  cmd\n' "$(count cmd)"
total=$(count .)
printf '%7d  total (root module; bench/ excluded)\n' "$total"

if [[ -n $parent ]]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$parent" | tar -x -C "$tmp"
	before=$(cd "$tmp" && count .)
	printf '\n%7d  total at %s\n%7d  total in the working tree\n%+7d  delta\n' \
		"$before" "$parent" "$total" $((total - before))
fi
