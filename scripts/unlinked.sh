#!/usr/bin/env bash
# unlinked.sh — what nothing links: every function and method declared in
# a non-test file under internal/ that no binary's symbol table lists. It
# builds each main package under cmd/, examples/ and bench/ (its own
# module) with inlining off (-gcflags=all=-l, so a function whose only
# calls would be inlined still shows) into a temporary directory, reads
# every binary with `go tool nm`, and prints each declaration missing
# from all of them as `file:line symbol`, then a count. A test-only
# helper in a non-test file shows up as well as dead code.
# It then holds the list to scripts/unlinked.allow, the functions that
# stay with their reasons, and exits non-zero on an unlinked function the
# allow list lacks, on an allow line it no longer reports and on an allow
# line without a kind (oracle, seam or fixture) and a reason. `make
# unlinked` runs it; CI gates on it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

module=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

n=0
build() { # build <module dir> <package dirs…>
	local mod=$1
	shift
	for dir in "$@"; do
		n=$((n + 1))
		(cd "$mod" && go build -gcflags=all=-l -o "$tmp/bin$n" "$dir")
	done
}
build . $(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./cmd/... ./examples/...)
build bench $(cd bench && go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...)

# Linked text symbols with type arguments dropped, so an instantiation
# `pkg.(*List[go.shape.int]).Get` matches its declaration `pkg.(*List).Get`.
for b in "$tmp"/bin*; do go tool nm "$b"; done |
	sed -nE 's/^ *[0-9a-f]* [Tt] //p' |
	sed -E ':a; s/\[[^][]*\]//g; ta' | sort -u >"$tmp/linked"

# Declared functions as "<file:line> <pkg>.<name>", "<pkg>.T.M" or
# "<pkg>.(*T).M"; init functions are never listed by name.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	pkg="$module/$(dirname "$f")"
	awk -v pkg="$pkg" '
		/^func / {
			s = substr($0, 6); recv = ""
			if (s ~ /^\(/) {
				r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
				sub(/\[.*/, "", r) # type parameters, which may hold spaces
				k = split(r, part, " "); t = part[k]
				recv = (t ~ /^\*/) ? "(" t ")." : t "."
			}
			if (!match(s, /^[A-Za-z0-9_]+/)) next
			name = substr(s, RSTART, RLENGTH)
			if (name != "init" || recv != "") print FILENAME ":" FNR, pkg "." recv name
		}' "$f"
done >"$tmp/declared"

# A value-receiver method also counts as linked through its pointer wrapper.
awk 'NR == FNR { linked[$0] = 1; next }
	{
		sym = $2; ptr = sym
		if (match(sym, /\.[A-Za-z0-9_]+\.[A-Za-z0-9_]+$/) && sym !~ /\)\./) {
			split(substr(sym, RSTART + 1), p, ".")
			ptr = substr(sym, 1, RSTART) "(*" p[1] ")." p[2]
		}
		if (!(sym in linked) && !(ptr in linked)) print
	}' "$tmp/linked" "$tmp/declared" >"$tmp/unlinked"
cat "$tmp/unlinked"
echo "$(wc -l <"$tmp/unlinked") of $(wc -l <"$tmp/declared") functions declared under internal/ are in no binary"

allow=scripts/unlinked.allow
grep -vE '^(#|[[:space:]]*$)' "$allow" >"$tmp/allow-lines" || true
status=0
if bad=$(grep -vE '^[^[:space:]]+ (oracle|seam|fixture): [^[:space:]]' "$tmp/allow-lines"); then
	echo "$allow: lines without a kind (oracle, seam or fixture) and a reason:"
	echo "$bad"
	status=1
fi
awk '{ print $2 }' "$tmp/unlinked" | sort -u >"$tmp/unlinked-syms"
awk '{ print $1 }' "$tmp/allow-lines" | sort -u >"$tmp/allowed-syms"
if new=$(comm -23 "$tmp/unlinked-syms" "$tmp/allowed-syms" | grep .); then
	echo "unlinked and not in $allow (delete them, move them into a _test.go file, or list them with a reason):"
	echo "$new"
	status=1
fi
if stale=$(comm -13 "$tmp/unlinked-syms" "$tmp/allowed-syms" | grep .); then
	echo "in $allow but no longer unlinked (drop the lines):"
	echo "$stale"
	status=1
fi
if [[ $status == 0 ]]; then
	echo "every unlinked function is in $allow ($(wc -l <"$tmp/allowed-syms") kept)"
fi
exit $status
