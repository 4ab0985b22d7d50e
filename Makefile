# Developer entry points. `make verify` is the full pre-merge gate: build,
# vet, every test, the race detector over the concurrency-bearing packages,
# and a one-iteration smoke of the benchmark suite.

GO ?= go

.PHONY: verify build test race bench-smoke bench-selftest bench-pair fuzz lint profile-largen profile-mobile profile-hotspot profile-serve report-identity instrument-cost loc

verify: build test race bench-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

# Formatting and static analysis beyond vet: any file gofmt would rewrite
# (root module or bench/) fails the target. staticcheck is optional locally
# (skipped with a note when absent); CI installs it, so findings still gate
# merges.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt would rewrite:"; echo "$$out"; exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim ./internal/des ./internal/experiments ./internal/metrics ./internal/serve

bench-smoke:
	$(GO) test -run NONE -bench . -benchtime 1x .

# Self-test of the repository benchmark (BENCHMARK.json, bench/). It is a
# module of its own, so `go test ./...` at the root never reaches it.
bench-selftest:
	cd bench && $(GO) test ./...

# "Same bytes as the parent": build cmd/meshsim at PARENT and here, run a
# fixed list of scenarios on both and cmp the canonical reports (the repo
# has no recorded goldens). A PR that means to move results will fail it —
# by design; one that claims it moved none must pass.
PARENT ?= HEAD~1

report-identity:
	bash scripts/report_identity.sh $(PARENT)

# The benchmark against PARENT (~11 min): three alternating pairs of
# `bash bench/run.sh --seed 1`, judged by its --compare, then one traced
# pass per side with every count-unit per-layer metric compared exactly.
# Fails on a regressed verdict, a moved count or a failed operation.
bench-pair:
	bash scripts/bench_pair.sh $(PARENT)

# Non-test Go lines per internal/* package, cmd/ and in total (bench/ is
# its own module and is left out), then PARENT's total and the delta — the
# numbers ROADMAP's "non-test LOC strictly down" acceptance compares.
loc:
	@bash scripts/loc.sh $(PARENT)

# What turning each instrument on costs: BenchmarkInstrumentCost's off/on
# pairs (collector, auditor, journey recorder at 49 and 225 nodes), COUNT
# rounds (default 5), on/off ratio per pair with its min–max. ROADMAP
# budgets each at ≤ 1.15×; reported, not gated.
instrument-cost:
	bash scripts/instrument_cost.sh

# Coverage-guided fuzzing: the DES differential queue oracle, the
# radio-path differential oracle, the duplicate cache's kept count against
# its exhaustive scan, the routing table against its dense oracle and
# meshsimd's request decoders with the digest memo against the decode path
# (go test allows one -fuzz pattern per invocation, hence one run per
# target). FUZZTIME=5m for a deep run.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run NONE -fuzz FuzzQueueDifferential -fuzztime $(FUZZTIME) ./internal/des
	$(GO) test -run NONE -fuzz FuzzMediumDifferential -fuzztime $(FUZZTIME) ./internal/radio
	$(GO) test -run NONE -fuzz FuzzDupCacheLen -fuzztime $(FUZZTIME) ./internal/routing
	$(GO) test -run NONE -fuzz FuzzTableDifferential -fuzztime $(FUZZTIME) ./internal/routing
	$(GO) test -run NONE -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/serve

# CPU profile of the radio-bound 225-node regime (the 15×15 grid of the
# benchmark's grid225 workload, 10 s measured) via cmd/meshsim and
# internal/prof — 20 replications on one worker, a few seconds of samples
# — then the top of the CPU profile, so a CI log shows the radio/MAC/DES
# split without the artifact. Inspect further with
# `go tool pprof <binary-less profile>`. Memory is measured where it is
# still alive: TestEngineHeapScalesWithNeighbourhood prints HeapAlloc of a
# warm 49-, 225- and 900-node engine after its last replication, engine
# still referenced (a -memprofile written at exit sees only garbage), and
# with -liveheap writes the 900-node engine's heap profile, whose top
# follows.
PROFILE_DIR ?= profiles

profile-largen:
	mkdir -p $(PROFILE_DIR)
	$(GO) run ./cmd/meshsim -rows 15 -cols 15 -area 2142.857 -flows 20 \
		-warmup 10s -measure 10s -session 10s -reps 20 -workers 1 \
		-cpuprofile $(PROFILE_DIR)/largen-cpu.pprof
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/largen-cpu.pprof
	$(GO) test -count=1 -run TestEngineHeapScalesWithNeighbourhood -v ./internal/sim \
		-args -liveheap $(abspath $(PROFILE_DIR))/largen-live-heap.pprof | grep HeapAlloc
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=10 $(PROFILE_DIR)/largen-live-heap.pprof
	@ls -l $(PROFILE_DIR)

# The same for the memo's write side: the benchmark's mobile100 shape (100
# nodes on a perturbed grid, 5 m/s waypoints, churn and burst loss), where
# half the transmissions rebuild an audible set and every delivery advances
# a link's Gilbert–Elliott chain: radio.buildAudible (cumulative, the
# propagation row kernel under it) and fault.LinkModel.Deliver are the
# lines to read. The allocation profile of the same ten runs follows
# (GODEBUG=memprofilerate=1 records every allocation). Route maintenance
# — RERRs and re-discovery after every link break — allocates nothing on
# a warm engine, so what it shows is the first run's build, per-run setup
# (placement, flows, churn, mobility) and pool refills after crashes
# strand packets.
profile-mobile:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/meshsim ./cmd/meshsim
	GODEBUG=memprofilerate=1 $(PROFILE_DIR)/meshsim -config scripts/identity_mobile.json \
		-mttf 60s -mttr 5s -link-good 2s -link-bad 200ms -loss-bad 0.8 \
		-reps 10 -workers 1 \
		-cpuprofile $(PROFILE_DIR)/mobile-cpu.pprof \
		-memprofile $(PROFILE_DIR)/mobile-mem.pprof
	@ls -l $(PROFILE_DIR)
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/mobile-cpu.pprof
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 $(PROFILE_DIR)/meshsim $(PROFILE_DIR)/mobile-mem.pprof

# The saturated gateway regime: the benchmark's hotspot49 shape (7x7 grid,
# 20 flows x 8 pkt/s into a gateway). Its cost is 802.11 contention timers
# more than radio physics: read des (the heap, and the fixed-delay lanes
# that carry DIFS/EIFS/SIFS, ACK/CTS timeouts and airtime ends) against
# mac.freezeContention and radio.(*Medium).finish.
profile-hotspot:
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/meshsim ./cmd/meshsim
	$(PROFILE_DIR)/meshsim -gateway -flows 20 -rate 8 -session 10s -measure 40s \
		-reps 40 -workers 1 -cpuprofile $(PROFILE_DIR)/hotspot-cpu.pprof
	$(GO) tool pprof -top -nodecount=25 $(PROFILE_DIR)/meshsim $(PROFILE_DIR)/hotspot-cpu.pprof

# The daemon's miss path: BenchmarkServeThroughput/cold pushes never-seen
# /v1/run requests through one in-process server (decode, admission, the
# pooled engine and flight recorder, report encoding, cache): 200 misses
# of the 49-node paper scenario, about 5 s of samples. Read the des, radio
# and mac share against serve, encoding/json and runtime.gcBgMarkWorker: a
# miss should cost one warm run.
profile-serve:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run NONE -bench 'BenchmarkServeThroughput/cold' -benchtime 200x \
		-o $(PROFILE_DIR)/serve.test -cpuprofile $(PROFILE_DIR)/serve-cpu.pprof .
	@ls -l $(PROFILE_DIR)
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/serve-cpu.pprof
