#!/usr/bin/env bash
# instrument_cost.sh — what each instrument costs at 49 and at 225 nodes:
# the eight same-process off/on pairs of BenchmarkInstrumentCost (flight
# recorder at 100 ms, invariant auditor, journey recorder, and "all" three
# at once, each on the default 49-node run and on the 15×15 grid), COUNT
# times each, then per pair the median off and on times and the on/off
# ratio with the min–max of the COUNT round-by-round ratios. ROADMAP
# budgets each single instrument at ≤ 1.15×; the "all" rows are the
# combined cost it quotes. `make instrument-cost` runs it; nothing gates
# on the output.
set -euo pipefail

count=${COUNT:-5}
go test -run NONE -bench 'BenchmarkInstrumentCost$' \
	-benchtime 20x -count "$count" . | awk '
/^BenchmarkInstrumentCost\/[a-z]+\/n[0-9]+\/(off|on)/ {
	split($1, part, "/")
	name = part[2] " " substr(part[3], 2)
	side = part[4]; sub(/-[0-9]+$/, "", side)
	k = ++n[name, side]
	ms[name, side, k] = $3 / 1e6
	if (!(name in seen)) { seen[name] = 1; order[++names] = name }
}
function median(name, side, cnt,    i, j, t, v) {
	for (i = 1; i <= cnt; i++) v[i] = ms[name, side, i]
	for (i = 2; i <= cnt; i++)
		for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	return cnt % 2 ? v[(cnt+1)/2] : (v[cnt/2] + v[cnt/2+1]) / 2
}
END {
	if (names == 0) { print "instrument_cost: no benchmark lines in the go test output"; exit 1 }
	printf "%-12s %9s %9s   %s\n", "instrument N", "off ms", "on ms", "on/off (min–max over rounds)"
	for (a = 1; a <= names; a++) {
		name = order[a]; cnt = n[name, "on"]
		lo = 1e9; hi = 0
		for (i = 1; i <= cnt; i++) {
			r = ms[name, "on", i] / ms[name, "off", i]
			if (r < lo) lo = r
			if (r > hi) hi = r
		}
		off = median(name, "off", cnt); on = median(name, "on", cnt)
		printf "%-12s %9.2f %9.2f   %.2f× (%.2f–%.2f)\n", name, off, on, on / off, lo, hi
	}
}'
