#!/usr/bin/env bash
# report_identity.sh PARENT — prove "same bytes as the parent": build
# cmd/meshsim at the git revision PARENT (from a `git archive` snapshot in
# a temporary directory) and at the working tree, run the scenario lines
# below on both with -report … -canonical-report, and cmp(1) the reports.
# A line with -metrics also writes the flight recorder's heatmap CSV and
# series NDJSON, which are compared too: the canonical report does not
# carry the sampled per-node columns (queue, load, routes, dup_cache).
# A line with -journey also writes the sampled journeys and the decision
# provenance as NDJSON (-journey-out, -decisions); both are compared too,
# beside the report's "journey" section.
# Reports are compared without their "fingerprint" line, which is printed
# as `fingerprint: same|moved` for information: it hashes the Scenario
# struct's JSON, so it is a function of that struct's shape (guarded by
# TestFingerprintCoversEveryScenarioField) and moves whenever a field is
# added or removed, not of anything a run computes. The same goes for the
# two lines that count the event list's own work and not the protocol's —
# "events_executed" and "des/pending-hw", which move when bookkeeping
# events are merged or cancelled timers stop being queued; each is printed
# as `name: same` or `name: parent → change`.
# A second list runs the replication path — -reps and -discover, which
# fan out through the experiments planner and print mean ± CI summaries
# instead of writing a report — and cmp(1)s each side's printed summary
# whole, with its stderr and a non-zero exit status (an audited run that
# reports violations fails, and must fail alike on both sides). Every
# replication after a worker's first runs on a warm engine, so these are
# the lines that exercise a Reset, two of them with full queues. A last
# block builds cmd/experiments on both sides, runs three figures of the
# evaluation suite with -out and -reports, and compares every file it
# writes and its stdout.
# Exits non-zero, printing the first differing lines, on any mismatch.
# The repo keeps no recorded goldens (every golden test is tier-vs-tier or
# warm-vs-cold), so this is the check a PR that claims "no Result moved"
# runs: `make report-identity PARENT=<rev>`.
set -euo pipefail

parent=${1:?usage: report_identity.sh PARENT-REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git -C "$root" archive "$parent" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/parent" ./cmd/meshsim && go build -o "$tmp/parent-experiments" ./cmd/experiments)
(cd "$root" && go build -o "$tmp/change" ./cmd/meshsim && go build -o "$tmp/change-experiments" ./cmd/experiments)

# One scenario per line; the five schemes at the default 7×7 grid come
# first, with clnlr-2hop (two-hop HELLO load tables) after them, then
# gossip-adaptive (CLNLR at its density-only point) at the
# F-R6 gateway point, under churn with burst loss, and on a 60-node
# random placement. The -config overlays (read from the working tree on both sides,
# hence the cd) cover what flags cannot reach: waypoint mobility, where
# every step invalidates the audible sets — alone, and with churn and burst
# loss on top, the shape of the benchmark's mobile100 workload; Nakagami
# fading, where every transmission rebuilds its set; and log-distance path
# loss with per-link shadowing, kept moving so that model rebuilds too.
# Then ROADMAP item 8(b)'s 900-node field, one cold run: there every node's
# per-peer slabs (routes, neighbours) and duplicate cache grow mid-run.
# Then packet journeys traced on every flow of the saturated gateway point.
# Last, the loaded, session-churning regime the figures run (F-R3/F-R7 at
# 20 pkt/s), where an origin has many floods live at a node at once — for
# flood once more with -metrics, whose per-tick dup_cache column then
# compares the live-flood count where it peaks, at about 80 per node.
scenarios=(
	"-scheme clnlr"
	"-scheme flood"
	"-scheme gossip"
	"-scheme counter"
	"-scheme gossip-adaptive"
	"-scheme clnlr-2hop"
	"-scheme gossip-adaptive -gateway -flows 20 -rate 10"
	"-scheme gossip-adaptive -mttf 30s -mttr 3s -link-good 2s -link-bad 200ms -loss-bad 0.8"
	"-scheme gossip-adaptive -topo random -nodes 60"
	"-gateway -flows 20 -rate 8"
	"-rows 15 -cols 15 -area 2142.857 -flows 20"
	"-mttf 30s -mttr 3s -link-good 2s -link-bad 200ms -loss-bad 0.8"
	"-mttf 5s -mttr 100ms -rate 20"
	"-audit -mttf 5s -mttr 1s -measure 20s"
	"-metrics -scheme clnlr"
	"-metrics -scheme flood -rows 15 -cols 15 -area 2142.857 -mttf 20s -mttr 2s -measure 10s"
	"-config scripts/identity_mobile.json -audit"
	"-config scripts/identity_nakagami.json -metrics"
	"-config scripts/identity_mobile.json -mttf 60s -mttr 5s -link-good 2s -link-bad 200ms -loss-bad 0.8"
	"-config scripts/identity_logdistance.json -metrics"
	"-rows 30 -cols 30 -area 4437 -flows 40 -rate 2 -warmup 10s -measure 20s -session 10s"
	"-journey 1 -gateway -flows 20 -rate 8"
	"-session 10s -rate 20"
	"-scheme flood -session 10s -rate 20"
	"-metrics -scheme flood -session 10s -rate 20"
)
cd "$root"

# moved KEY I — "same", or "parent → change", for the numeric report line
# KEY of scenario I.
moved() {
	local a b
	a=$(grep "\"$1\":" "$tmp/parent.$2.full" | tr -dc 0-9 || true)
	b=$(grep "\"$1\":" "$tmp/change.$2.full" | tr -dc 0-9 || true)
	if [[ $a == "$b" ]]; then echo same; else echo "$a → $b"; fi
}

status=0
for i in "${!scenarios[@]}"; do
	args=${scenarios[$i]}
	outputs=(.json)
	if [[ $args == *-metrics* ]]; then
		outputs+=(-heatmap.csv -series.ndjson)
	fi
	if [[ $args == *-journey* ]]; then
		outputs+=(-journeys.ndjson -decisions.ndjson)
	fi
	for side in parent change; do
		journey=()
		if [[ $args == *-journey* ]]; then
			journey=(-journey-out "$tmp/$side.$i-journeys.ndjson" -decisions "$tmp/$side.$i-decisions.ndjson")
		fi
		# -metrics-out only names the files a -metrics line writes.
		# shellcheck disable=SC2086 # args is a flag list, split on purpose
		"$tmp/$side" $args "${journey[@]}" -metrics-out "$tmp/$side.$i" -report "$tmp/$side.$i.full" -canonical-report >/dev/null
		grep -Ev '^ *"(fingerprint|events_executed|des/pending-hw)":' "$tmp/$side.$i.full" >"$tmp/$side.$i.json"
	done
	fingerprint=same
	if [[ $(grep '"fingerprint":' "$tmp/parent.$i.full") != $(grep '"fingerprint":' "$tmp/change.$i.full") ]]; then
		fingerprint=moved
	fi
	events=$(moved events_executed "$i")
	pending=$(moved des/pending-hw "$i")
	verdict=identical
	for out in "${outputs[@]}"; do
		if ! cmp -s "$tmp/parent.$i$out" "$tmp/change.$i$out"; then
			verdict=DIFFERENT
			status=1
			echo "  $out differs:"
			diff "$tmp/parent.$i$out" "$tmp/change.$i$out" | head -n 4 || true
		fi
	done
	echo "$verdict  fingerprint: $fingerprint  events_executed: $events  pending-hw: $pending  meshsim $args"
done

# The replication path: plain replications, warm counter-scheme
# replications with 10 s sessions (each reset finds the network a new
# policy while floods may still be assessed), replications under churn and
# burst loss, audited replications, discovery probes with and without
# background flows and, gateway-pinned, under a churn schedule that spans
# the probe horizon, and the saturated gateway point (the benchmark's
# hotspot49 shape), whose warm resets find full MAC queues and discovery
# buffers — plain, and audited under churn, where crashes discard full
# queues and conservation is checked on every node across re-armings.
summaries=(
	"-reps 4"
	"-scheme counter -reps 4 -session 10s -rate 8"
	"-reps 3 -mttf 30s -mttr 3s -link-good 2s -link-bad 200ms -loss-bad 0.8"
	"-audit -reps 2 -measure 20s"
	"-discover 12 -reps 3"
	"-discover 12 -reps 3 -flows 0 -scheme flood"
	"-discover 12 -reps 3 -gateway -mttf 30s -mttr 3s"
	"-reps 4 -gateway -flows 20 -rate 8 -session 10s"
	"-reps 3 -audit -gateway -flows 20 -rate 8 -mttf 20s -mttr 2s -measure 20s"
)
for i in "${!summaries[@]}"; do
	args=${summaries[$i]}
	for side in parent change; do
		out=$tmp/$side.summary.$i.txt
		# shellcheck disable=SC2086 # args is a flag list, split on purpose
		"$tmp/$side" $args >"$out" 2>&1 || echo "exit status $?" >>"$out"
	done
	verdict=identical
	if ! cmp -s "$tmp/parent.summary.$i.txt" "$tmp/change.summary.$i.txt"; then
		verdict=DIFFERENT
		status=1
		echo "  summary differs:"
		diff "$tmp/parent.summary.$i.txt" "$tmp/change.summary.$i.txt" | head -n 4 || true
	fi
	echo "$verdict  summary  meshsim $args"
done

# The evaluation suite: cmd/experiments over a discovery sweep, a
# data-plane sweep and the summary table, with per-figure CSVs (-out) and
# per-cell reports (-reports). Each side runs in its own directory under
# the same relative paths, so every CSV, manifest.json, every cell report
# and stdout (minus its timing line) must match byte for byte.
suite="-quick -reps 2 -fig F-R1,F-R5,T-R2"
for side in parent change; do
	mkdir "$tmp/suite.$side"
	# shellcheck disable=SC2086 # suite is a flag list, split on purpose
	(cd "$tmp/suite.$side" && "$tmp/$side-experiments" $suite -out D -reports R | grep -v '^suite completed in' >stdout.txt)
done
verdict=identical
if ! diff -rq "$tmp/suite.parent" "$tmp/suite.change"; then
	verdict=DIFFERENT
	status=1
fi
echo "$verdict  suite  experiments $suite -out D -reports R ($(find "$tmp/suite.change" -type f | wc -l) files)"
exit $status
