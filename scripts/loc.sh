#!/usr/bin/env bash
# loc.sh [PARENT] — non-test Go lines (`wc -l` of every *.go that is not
# *_test.go): one row per internal/* package, one for cmd/, and the total
# over the whole root module (examples/ and doc.go included). bench/ is its
# own module and is left out. Given a git revision PARENT, it also counts
# that revision (from a `git archive` snapshot in a temporary directory,
# as report_identity.sh does) and prints each row as the parent's count,
# the working tree's count and the delta; a package present on one side
# only counts 0 on the other. The total row gives the figures ROADMAP's
# "non-test LOC strictly down" acceptance compares, the package rows a
# per-package claim. `make loc PARENT=<rev>` runs it.
set -euo pipefail

parent=${1:-}
cd "$(git rev-parse --show-toplevel)"

count() { # lines in the non-test Go files under one directory
	find "$1" \( -path ./bench -o -path './.*' \) -prune -o \
		-name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

rows() { # "<name> <count>" per internal package, cmd and the total
	for pkg in internal/*/; do
		echo "${pkg%/} $(count "$pkg")"
	done
	echo "cmd $(count cmd)"
	echo "total $(count .)"
}

if [[ -z $parent ]]; then
	rows | while read -r name n; do
		[[ $name == total ]] && name='total (root module; bench/ excluded)'
		printf '%7d  %s\n' "$n" "$name"
	done
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$parent" | tar -x -C "$tmp"
declare -A before after
names=()
while read -r name n; do before[$name]=$n; names+=("$name"); done < <(cd "$tmp" && rows)
while read -r name n; do
	after[$name]=$n
	[[ -v before[$name] ]] || names+=("$name")
done < <(rows)

printf '%7s %7s %7s  %s\n' parent now delta "(parent: $parent; bench/ excluded)"
for name in $(printf '%s\n' "${names[@]}" | grep -vx total | sort) total; do
	b=${before[$name]:-0} a=${after[$name]:-0}
	printf '%7d %7d %+7d  %s\n' "$b" "$a" $((a - b)) "$name"
done
