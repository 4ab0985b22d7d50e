#!/usr/bin/env bash
# bench_pair.sh PARENT — compare the working tree with the git revision
# PARENT on the repository benchmark (bench/, BENCHMARK.json). PARENT is
# snapshotted with `git archive` into a temporary directory, so each side
# builds and runs in its own tree. Then:
#   1. per workload, PAIRS (default 3) alternating pairs of
#      `bash bench/run.sh --seed 1 --workload W` (parent first in odd
#      pairs, change first in even ones), so the two runs of a pair are
#      seconds apart and a slow stretch of the box lands on one pair of
#      one workload, not on every workload of one side; all result files
#      judged by `bash bench/run.sh --compare`, which merges them per
#      workload and prints a verdict per workload × end-to-end metric,
#      followed here by the min–max of the per-pair change/parent ratios
#      (a range that straddles 1 is a difference the pairs do not agree
#      on; read it as spread);
#   2. one `--trace 1` pass per side, and every count-unit per-layer
#      metric compared exactly: counts repeat to the last digit for a
#      seed, so each moved (workload, metric) prints as `parent → change`,
#      followed by an `N/M same` line.
# Exits non-zero on any `regressed` verdict, any moved count or any failed
# benchmark operation on the change side. About 15 minutes on a 2-core
# box with three pairs, about 30 with ten; run nothing else meanwhile.
# `make bench-pair PARENT=<rev>` runs it (`PAIRS=10 make bench-pair …`
# for ten pairs, the fewest before a timing verdict is more than noise).
set -euo pipefail

seed=1
pairs=${PAIRS:-3}

parent=${1:?usage: bench_pair.sh PARENT-REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
declare -A tree=([parent]="$tmp/parent" [change]="$root")

# bench SIDE NAME ARGS... — run bench/run.sh ARGS in SIDE's tree, log to
# $tmp/SIDE.NAME.log, and keep the result file it wrote (result-trace.json
# for the run named trace) as $tmp/SIDE.NAME.json.
bench() {
	local side=$1 name=$2 file=result.json
	shift 2
	[[ $name == trace ]] && file=result-trace.json
	if ! (cd "${tree[$side]}" && bash bench/run.sh "$@") >"$tmp/$side.$name.log" 2>&1; then
		tail -n 20 "$tmp/$side.$name.log"
		echo "bench_pair: $side run $name failed"
		exit 2
	fi
	cp "${tree[$side]}/.bench_build/out/$file" "$tmp/$side.$name.json"
	echo "$side $name: $(jq '[.workloads[].failed] | add' "$tmp/$side.$name.json") failed operations"
}

status=0
mapfile -t workloads < <(jq -r '.workloads[].name' "$root/BENCHMARK.json")
for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		order=(parent change)
		((i % 2)) || order=(change parent)
		for side in "${order[@]}"; do
			bench "$side" "$w.$i" --seed "$seed" --workload "$w"
		done
	done
done
# list SIDE — SIDE's result files of the pairs, comma-separated.
list() {
	local files=("$tmp/$1".*.[0-9]*.json) IFS=,
	echo "${files[*]}"
}
# pair_ratios — one `workload metric change/parent` line per pair and
# end-to-end metric the parent read non-zero.
pair_ratios() {
	local w i
	for w in "${workloads[@]}"; do
		for i in $(seq 1 "$pairs"); do
			jq -r --arg w "$w" --slurpfile c "$tmp/change.$w.$i.json" '
				.workloads[$w].metrics | to_entries[] | select(.value.value != 0)
				| "\($w) \(.key) \($c[0].workloads[$w].metrics[.key].value / .value.value)"' \
				"$tmp/parent.$w.$i.json"
		done
	done
}
echo
verdicts=$(cd "$root" && bash bench/run.sh --compare "$(list parent)" "$(list change)") || status=1
awk 'NR == FNR {
	k = $1 " " $2
	if (!(k in lo) || $3 + 0 < lo[k]) lo[k] = $3 + 0
	if (!(k in hi) || $3 + 0 > hi[k]) hi[k] = $3 + 0
	next
}
{
	k = $1 " " $2
	if (k in lo) printf "%s  pairs %.3f–%.3fx\n", $0, lo[k], hi[k]
	else print
}' <(pair_ratios) <(echo "$verdicts")

echo
for side in parent change; do
	bench "$side" trace --seed "$seed" --trace 1
done
counts() {
	jq -r '.workloads | to_entries[] | .key as $w | .value.metrics | to_entries[]
		| select(.value.unit == "count") | "\($w) \(.key) \(.value.value)"' "$1"
}
awk 'NR == FNR { parent[$1 " " $2] = $3; next }
{
	key = $1 " " $2; total++
	if (key in parent && parent[key] == $3) same++
	else printf "%-12s %-28s %s → %s\n", $1, $2, (key in parent ? parent[key] : "—"), $3
}
END {
	printf "%d/%d same\n", same, total
	exit same != total
}' <(counts "$tmp/parent.trace.json") <(counts "$tmp/change.trace.json") || status=1

failed=$(jq -s '[.[].workloads[].failed] | add' "$tmp"/change.*.json)
if ((failed > 0)); then
	echo "bench_pair: $failed failed operations on the change side"
	status=1
fi
exit $status
