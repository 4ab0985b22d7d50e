package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// engineWorkload drives a fixed list of (scheme, seed) scenarios through
// one warm engine on one goroutine. A round runs the whole list once.
type engineWorkload struct {
	name  string
	opt   options
	pairs []scenario
	// warmups indexes the pairs the set-up runs and discards: the first
	// pair of each scheme, so every policy has built its state.
	warmups []int
	// observed (observed49) runs each pair twice back to back: plain, then
	// with collector, journey recorder and auditor all on.
	observed bool
	// minPDR > 0 (paper49) asserts the paper's operating point: PDR and
	// discovery ratio of every run at least this.
	minPDR float64

	eng *engine
	obs *observation

	setupS []float64
	rounds []roundSample
	first  []runResult // per pair, from the first timed round
	chk    checker
}

type roundSample struct {
	plainMs []float64 // per pair: wall time of the plain run
	opMs    []float64 // per pair: wall time of the whole operation
	mallocs float64
}

var errInjected = errors.New("bench: injected run error")

// newEngineWorkload builds the named engine workload's scenario list from
// the seed: every pair has a simulation seed of its own and the schemes
// alternate along the list, so a round averages over as many independent
// draws of flow endpoints as it has pairs. Full sizes give rounds of
// about 4 s on the reference box, three rounds in the 12 s of a run.
func newEngineWorkload(name string, index int, opt options) *engineWorkload {
	w := &engineWorkload{name: name, opt: opt}
	both := []string{"clnlr", "flood"}
	var base scenario
	var schemes []string
	var pairs int
	switch name {
	case wlPaper49:
		base, schemes, pairs = paperScenario(80*time.Second), allSchemes(), 50
		w.minPDR = 0.95
	case wlGrid225:
		base, schemes, pairs = gridScenario(20*time.Second), both, 12
	case wlMobile100:
		base, schemes, pairs = mobileScenario(30*time.Second), both, 10
	case wlHotspot49:
		base, schemes, pairs = hotspotScenario(40*time.Second), both, 20
	case wlObserved49:
		base, schemes, pairs = paperScenario(80*time.Second), []string{"clnlr"}, 15
		w.observed = true
	default:
		panic("bench: unknown engine workload " + name)
	}
	if opt.short {
		base.Measure = simTime(2 * time.Second)
		pairs = len(schemes)
	}
	base.Name = name
	for k := 0; k < pairs; k++ {
		w.pairs = append(w.pairs, withSchemeSeed(base, schemes[k%len(schemes)], simSeed(opt.seed, index, k)))
	}
	for i := range schemes {
		w.warmups = append(w.warmups, i)
	}
	w.first = make([]runResult, len(w.pairs))
	return w
}

// simSeed spreads the benchmark seed so that different --seed values and
// different workloads never share a simulation seed.
func simSeed(seed uint64, workload, k int) uint64 {
	return seed*1000 + uint64(workload)*100 + uint64(k) + 1
}

func (w *engineWorkload) workloadName() string { return w.name }

// setup is what a user pays before the first useful run: scenario list is
// already built, so a cold engine build, placement, and one discarded run
// per scheme.
func (w *engineWorkload) setup() {
	runtime.GC()
	t := time.Now()
	w.eng = newEngine()
	if w.observed {
		w.obs = newObservation(true, serveSampleInterval, true)
	}
	for _, i := range w.warmups {
		w.runPair(i, nil)
	}
	w.setupS = append(w.setupS, time.Since(t).Seconds())
}

// runPair executes pair i (both halves on observed49) and, in a timed
// round, records its wall time in rs. Errors land in the checker.
func (w *engineWorkload) runPair(i int, rs *roundSample) (r runResult, ok bool) {
	sc := w.pairs[i]
	t := time.Now()
	r, err := w.eng.run(sc)
	plain := time.Since(t)
	if w.opt.inject.runError && i == 0 {
		err = errInjected
	}
	ok = w.chk.check(err == nil, "run_error", "%s %s seed %d: %v", w.name, sc.Scheme, sc.Seed, err)
	var instr time.Duration
	if w.observed {
		t = time.Now()
		ri, err := w.eng.runObserved(withAudit(sc), w.obs)
		instr = time.Since(t)
		ok = w.chk.check(err == nil, "instrumented_run_error", "seed %d: %v", sc.Seed, err) && ok
		ok = w.chk.check(ri == r, "instrumented_result_differs", "seed %d", sc.Seed) && ok
	}
	if rs != nil {
		rs.plainMs = append(rs.plainMs, ms(plain))
		rs.opMs = append(rs.opMs, ms(plain+instr))
	}
	return r, ok
}

func (w *engineWorkload) round() time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var rs roundSample
	for i, sc := range w.pairs {
		r, ok := w.runPair(i, &rs)
		if !ok {
			continue
		}
		w.chk.check(r.Delivered > 0, "nothing_delivered", "%s seed %d", sc.Scheme, sc.Seed)
		if w.minPDR > 0 {
			w.chk.check(r.PDR >= w.minPDR && r.DiscoveryRate >= w.minPDR, "paper_point_degraded",
				"%s seed %d: pdr %.3f discovery %.3f", sc.Scheme, sc.Seed, r.PDR, r.DiscoveryRate)
		}
		if len(w.rounds) == 0 {
			w.first[i] = r
		} else {
			w.chk.check(r == w.first[i], "warm_rerun_differs", "%s seed %d round %d", sc.Scheme, sc.Seed, len(w.rounds))
		}
	}
	runtime.ReadMemStats(&m1)
	rs.mallocs = float64(m1.Mallocs - m0.Mallocs)
	w.rounds = append(w.rounds, rs)
	return time.Duration(sum(rs.opMs) * float64(time.Millisecond))
}

func (w *engineWorkload) roundSimSeconds() float64 {
	t := 0.0
	for _, sc := range w.pairs {
		t += simSeconds(sc)
	}
	return t
}

func (w *engineWorkload) finish() outcome {
	// Warm = cold: the first pair on a fresh engine gives the same result
	// as on the engine that has run every round.
	cold, err := newEngine().run(w.pairs[0])
	if w.chk.check(err == nil, "cold_run_error", "%v", err) && !w.opt.inject.runError {
		w.chk.check(cold == w.first[0], "cold_run_differs", "%s seed %d", w.pairs[0].Scheme, w.pairs[0].Seed)
	}

	// Bursts of interference from outside the process last about as long
	// as one run, so each pair's time is its median over the rounds; the
	// same statistic per round gives the quartiles printed beside it.
	stat := func(rs []roundSample) (speed, p50, p90 float64) {
		plain := make([]float64, len(w.pairs))
		op := make([]float64, len(w.pairs))
		for i := range w.pairs {
			var ps, os []float64
			for _, r := range rs {
				ps = append(ps, r.plainMs[i])
				os = append(os, r.opMs[i])
			}
			plain[i], op[i] = median(ps), median(os)
		}
		return w.roundSimSeconds() / (sum(plain) / 1000), quantile(op, 0.5), quantile(op, 0.9)
	}
	var speeds, p50s, p90s, allocs []float64
	ops := 0
	for i, r := range w.rounds {
		speed, p50, p90 := stat(w.rounds[i : i+1])
		speeds, p50s, p90s = append(speeds, speed), append(p50s, p50), append(p90s, p90)
		allocs = append(allocs, r.mallocs/float64(len(r.opMs)))
		ops += len(r.opMs)
	}
	speed, p50, p90 := stat(w.rounds)
	overRounds := func(v float64, perRound []float64) metricValue {
		return metricValue{Value: v, Q1: quantile(perRound, 0.25), Q3: quantile(perRound, 0.75), N: len(perRound)}
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(w.eng)

	out := w.chk.outcome(ops)
	out.metrics = map[string]metricValue{
		"setup_s":          summarize(w.setupS),
		"sim_s_per_wall_s": overRounds(speed, speeds),
		"op_p50_ms":        overRounds(p50, p50s),
		"op_p90_ms":        overRounds(p90, p90s),
		"allocs_per_op":    summarize(allocs),
		"live_heap_mb":     {Value: heap, N: 1},
	}
	return out
}

// ---- traced pass ----

// layerCounts are the exact work counts of one traced round, read from
// the collector and the run results.
type layerCounts struct {
	c               map[string]float64 // collector counters and diagnostics, summed
	pendingHW, txHW float64            // high-water marks, maximum over runs
	sent, delivered float64
}

func (w *engineWorkload) layers(tr *tracer) outcome {
	w.setup()
	budget := 80 * time.Millisecond
	coldEngines := 3
	if w.opt.short {
		budget = 5 * time.Millisecond
		coldEngines = 1
	}

	// One untraced round on the warm engine: the base of
	// trace.overhead_ratio, des.ns_per_event and the ledger.
	warmMs := make([]float64, len(w.pairs))
	var untraced time.Duration
	for i, sc := range w.pairs {
		t := time.Now()
		r, err := w.eng.run(sc)
		d := time.Since(t)
		w.chk.check(err == nil, "run_error", "%s seed %d: %v", sc.Scheme, sc.Seed, err)
		w.first[i] = r
		warmMs[i] = ms(d)
		untraced += d
	}

	// The traced round: counters-only collector plus full journeys.
	obs := newObservation(true, 0, true)
	agg := newJourneyAgg()
	counts := layerCounts{c: map[string]float64{}}
	var traced time.Duration
	var encodeUs []float64
	var warmReport []byte
	for i, sc := range w.pairs {
		tr.begin("sim.Engine.RunJourney")
		t := time.Now()
		r, err := w.eng.runObserved(sc, obs)
		traced += time.Since(t)
		tr.end()
		if !w.chk.check(err == nil, "traced_run_error", "%s seed %d: %v", sc.Scheme, sc.Seed, err) {
			continue
		}
		w.chk.check(r == w.first[i], "traced_result_differs", "%s seed %d", sc.Scheme, sc.Seed)
		counts.add(obs, r)
		agg.add(obs)
		tr.begin("sim.BuildReport+RunReport.WriteJSON")
		t = time.Now()
		rep, err := reportBytes(sc, r, obs, false)
		encodeUs = append(encodeUs, us(time.Since(t)))
		tr.end()
		w.chk.check(err == nil, "report_encode_error", "%v", err)
		if i == 0 {
			warmReport = rep
		}
	}

	// Cold engines: unit cost of a first run, and warm = cold down to the
	// counters and journeys of the canonical report.
	var coldMs []float64
	for k := 0; k < coldEngines; k++ {
		tr.begin("sim.NewEngine+Engine.Run")
		t := time.Now()
		r, err := newEngine().run(w.pairs[0])
		coldMs = append(coldMs, ms(time.Since(t)))
		tr.end()
		if w.chk.check(err == nil, "cold_run_error", "%v", err) {
			w.chk.check(r == w.first[0], "cold_run_differs", "%s seed %d", w.pairs[0].Scheme, w.pairs[0].Seed)
		}
	}
	coldObs := newObservation(true, 0, true)
	if r, err := newEngine().runObserved(w.pairs[0], coldObs); w.chk.check(err == nil, "cold_traced_run_error", "%v", err) {
		rep, err := reportBytes(w.pairs[0], r, coldObs, false)
		w.chk.check(err == nil && bytes.Equal(rep, warmReport), "cold_report_differs", "%s seed %d", w.pairs[0].Scheme, w.pairs[0].Seed)
	}

	m := map[string]float64{}
	w.instrumentCosts(tr, m, warmMs[0])
	k := w.kernels(tr, counts, budget)

	events := counts.c["des/events"]
	wallNs := float64(untraced)
	m["des.events"] = events
	m["des.pending_hw"] = counts.pendingHW
	m["des.ns_per_event"] = ratio(wallNs, events)
	m["des.hold_ns"] = k.holdNs

	tx := counts.c["radio/transmissions"]
	deliveries, corruptions := counts.c["radio/deliveries"], counts.c["radio/corruptions"]
	m["radio.transmissions"] = tx
	m["radio.deliveries"] = deliveries
	m["radio.corruptions"] = corruptions
	m["radio.impair_drops"] = counts.c["radio/impair-drops"]
	m["radio.fanout"] = ratio(deliveries+corruptions, tx)
	m["radio.decode_ratio"] = ratio(deliveries, deliveries+corruptions+counts.c["radio/impair-drops"])
	m["radio.audible_rebuilds"] = counts.c["radio/audible-rebuilds"]
	m["radio.tx_inflight_hw"] = counts.txHW
	m["radio.tx_ns"] = k.txNs
	m["radio.tx_overlap_ns"] = k.txOverlapNs
	m["radio.rebuild_ns"] = k.rebuildNs

	txData := counts.c["mac/tx-data"]
	m["mac.tx_data"] = txData
	m["mac.tx_broadcast"] = counts.c["mac/tx-broadcast"]
	m["mac.tx_ack"] = counts.c["mac/tx-ack"]
	m["mac.retries"] = counts.c["mac/retries"]
	m["mac.drop_queue_full"] = counts.c["mac/dropped-queue-full"]
	m["mac.drop_retry_limit"] = counts.c["mac/dropped-retry-limit"]
	m["mac.rx_corrupted"] = counts.c["mac/rx-corrupted"]
	m["mac.first_try_ratio"] = 1 - ratio(counts.c["mac/retries"], txData)
	m["mac.exchange_ns"] = k.exchangeNs
	m["mac.broadcast_ns"] = k.broadcastNs

	started := counts.c["routing/discoveries-started"]
	fwd, sup := counts.c["routing/rreq-forwarded"], counts.c["routing/rreq-suppressed"]
	m["routing.discoveries_started"] = started
	m["routing.discovery_ratio"] = ratio(counts.c["routing/discoveries-succeeded"], started)
	m["routing.rreq_per_discovery"] = ratio(counts.c["routing/rreq-originated"]+fwd, started)
	m["routing.rreq_forwarded"] = fwd
	m["routing.rreq_suppressed"] = sup
	m["routing.forward_ratio"] = ratio(fwd, fwd+sup)
	m["routing.rrep_sent"] = counts.c["routing/rrep-sent"]
	m["routing.rerr_sent"] = counts.c["routing/rerr-sent"]
	m["routing.hello_sent"] = counts.c["routing/hello-sent"]
	m["routing.data_forwarded"] = counts.c["routing/data-forwarded"]
	m["routing.drop_no_route"] = counts.c["routing/drop-no-route"]
	m["routing.drop_link_fail"] = counts.c["routing/drop-link-fail"]
	m["routing.drop_buffer_full"] = counts.c["routing/drop-buffer-full"]
	m["routing.table_lookup_ns"] = k.lookupNs
	m["routing.table_update_ns"] = k.updateNs
	m["routing.dupcache_seen_ns"] = k.dupSeenNs
	m["routing.nl_ns"] = k.nlNs
	m["core.forward_prob_ns"] = k.fwdProbNs

	js := agg.summary()
	m["traffic.sent"] = counts.sent
	m["traffic.delivered"] = counts.delivered
	m["traffic.pdr"] = ratio(counts.delivered, counts.sent)
	m["traffic.delay_p50_ms"] = js.delayP50Ms
	m["traffic.delay_p99_ms"] = js.delayP99Ms
	m["pkt.pool_cycle_ns"] = k.poolCycleNs
	m["pkt.clone_ns"] = k.cloneNs
	m["pkt.pool_drops"] = counts.c["pkt/pool-drops"]
	for _, layer := range []string{"routing", "queue", "access", "retry", "air"} {
		m["journey.share_"+layer] = js.share[layer]
	}
	m["journey.mean_hops"] = js.meanHops

	m["sim.cold_run_ms"] = median(coldMs)
	m["sim.cold_over_warm"] = ratio(median(coldMs), warmMs[0])
	m["sim.report_encode_us"] = median(encodeUs)
	m["trace.overhead_ratio"] = ratio(float64(traced), wallNs)

	// The outside-in ledger: exact count x kernel unit cost, as a share of
	// the untraced round. A radio or MAC unit cost includes the event-list
	// time of the events that operation schedules, so des is charged only
	// for the events no kernel accounts for.
	acks, broadcasts := m["mac.tx_ack"], m["mac.tx_broadcast"]
	desNs := max(events-tx*k.txEvents-acks*k.exchangeEvents-broadcasts*k.broadcastEvents, 0) * k.holdNs
	radioNs := tx*k.txNs + m["radio.audible_rebuilds"]*max(k.rebuildNs-k.txNs, 0)
	macNs := acks*k.exchangeNs + broadcasts*k.broadcastNs
	routingNs := (m["routing.data_forwarded"]+counts.c["routing/data-originated"])*k.lookupNs +
		counts.c["routing/rreq-received"]*k.dupSeenNs +
		(fwd+sup)*(k.nlNs+k.fwdProbNs) +
		(counts.c["routing/rrep-received"]+counts.c["routing/hello-heard"]+fwd+sup)*k.updateNs
	pktNs := (counts.sent+m["routing.rrep_sent"]+m["routing.rerr_sent"]+m["routing.hello_sent"]+fwd)*k.poolCycleNs +
		counts.c["mac/rx-delivered"]*k.cloneNs
	m["ledger.des_share"] = ratio(desNs, wallNs)
	m["ledger.radio_share"] = ratio(radioNs, wallNs)
	m["ledger.mac_share"] = ratio(macNs, wallNs)
	m["ledger.coverage"] = ratio(desNs+radioNs+macNs+routingNs+pktNs, wallNs)

	out := w.chk.outcome(2*len(w.pairs) + coldEngines + 1)
	out.metrics = layerValues(m)
	return out
}

func (c *layerCounts) add(o *observation, r runResult) {
	for _, name := range collectorCounters {
		c.c[name] += float64(o.counter(name))
	}
	for _, name := range collectorDiagnostics {
		c.c[name] += float64(o.diag(name))
	}
	c.c["des/events"] += float64(o.events())
	c.pendingHW = max(c.pendingHW, float64(o.counter("des/pending-hw")))
	c.txHW = max(c.txHW, float64(o.counter("radio/tx-inflight-hw")))
	c.sent += float64(r.Sent)
	c.delivered += float64(r.Delivered)
}

var collectorCounters = []string{
	"radio/transmissions", "radio/deliveries", "radio/corruptions", "radio/impair-drops",
	"mac/tx-data", "mac/tx-broadcast", "mac/tx-ack", "mac/retries", "mac/dropped-queue-full",
	"mac/dropped-retry-limit", "mac/rx-corrupted", "mac/rx-delivered",
	"routing/discoveries-started", "routing/discoveries-succeeded", "routing/rreq-originated",
	"routing/rreq-forwarded", "routing/rreq-suppressed", "routing/rreq-received",
	"routing/rrep-sent", "routing/rrep-received", "routing/rerr-sent", "routing/hello-sent",
	"routing/hello-heard", "routing/data-forwarded", "routing/data-originated",
	"routing/drop-no-route", "routing/drop-link-fail", "routing/drop-buffer-full",
}

var collectorDiagnostics = []string{"radio/audible-rebuilds", "pkt/pool-drops"}

// instrumentCosts runs the first pair plain and under each instrument
// alone, then all together, alternating in one process so drift cancels.
func (w *engineWorkload) instrumentCosts(tr *tracer, m map[string]float64, warmRunMs float64) {
	sc := w.pairs[0]
	reps := int(1000 / (5 * warmRunMs))
	reps = min(max(reps, 1), 3)
	if w.opt.short {
		reps = 1
	}
	instruments := []struct {
		metric string
		sc     scenario
		obs    *observation
	}{
		{"metrics.cost_ratio", sc, newObservation(true, serveSampleInterval, false)},
		{"audit.cost_ratio", withAudit(sc), newObservation(false, 0, false)},
		{"journey.cost_ratio", sc, newObservation(false, 0, true)},
		{"sim.observer_cost_ratio", withAudit(sc), newObservation(true, serveSampleInterval, true)},
	}
	plain := 0.0
	cost := make([]float64, len(instruments))
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		_, err := w.eng.run(sc)
		plain += time.Since(t).Seconds()
		w.chk.check(err == nil, "run_error", "%v", err)
		for i, in := range instruments {
			tr.begin("sim.Engine.RunJourney[" + in.metric + "]")
			t = time.Now()
			r, err := w.eng.runObserved(in.sc, in.obs)
			cost[i] += time.Since(t).Seconds()
			tr.end()
			if w.chk.check(err == nil, "instrumented_run_error", "%s: %v", in.metric, err) {
				w.chk.check(r == w.first[0], "instrumented_result_differs", "%s", in.metric)
			}
		}
	}
	for i, in := range instruments {
		m[in.metric] = ratio(cost[i], plain)
	}
}

// kernelCosts are host-time unit costs in nanoseconds per operation, and
// for the kernels that own a simulator the DES events per operation.
type kernelCosts struct {
	holdNs                                    float64
	txNs, txOverlapNs, rebuildNs              float64
	exchangeNs, broadcastNs                   float64
	txEvents, exchangeEvents, broadcastEvents float64
	lookupNs, updateNs, dupSeenNs, nlNs       float64
	fwdProbNs, poolCycleNs, cloneNs           float64
}

func (w *engineWorkload) kernels(tr *tracer, counts layerCounts, budget time.Duration) kernelCosts {
	sc := w.pairs[0]
	nodes := sc.Rows * sc.Cols
	degree := meanDegree(sc)
	timed := func(name string, k kernel) (float64, float64) {
		tr.begin("kernel:" + name)
		defer tr.end()
		return perOp(k, budget)
	}
	var k kernelCosts
	k.holdNs, _ = timed("des.hold_ns", desHoldKernel(max(int(counts.pendingHW), 1)))
	k.txNs, k.txEvents = timed("radio.tx_ns", radioKernel(sc, 1, false))
	k.txOverlapNs, _ = timed("radio.tx_overlap_ns", radioKernel(sc, max(int(counts.txHW), 2), false))
	k.rebuildNs, _ = timed("radio.rebuild_ns", radioKernel(sc, 1, true))
	k.exchangeNs, k.exchangeEvents = timed("mac.exchange_ns", macKernel(sc, false))
	k.broadcastNs, k.broadcastEvents = timed("mac.broadcast_ns", macKernel(sc, true))
	lookup, update := tableKernels(nodes)
	k.lookupNs, _ = timed("routing.table_lookup_ns", lookup)
	k.updateNs, _ = timed("routing.table_update_ns", update)
	k.dupSeenNs, _ = timed("routing.dupcache_seen_ns", dupCacheKernel(nodes))
	k.nlNs, _ = timed("routing.nl_ns", neighborLoadKernel(degree))
	k.fwdProbNs, _ = timed("core.forward_prob_ns", forwardProbKernel(degree))
	cycle, clone := pktKernels(sc)
	k.poolCycleNs, _ = timed("pkt.pool_cycle_ns", cycle)
	k.cloneNs, _ = timed("pkt.clone_ns", clone)
	return k
}

// layerValues turns measured per-layer numbers into the full declared
// set: a metric whose layer this workload does not run reads 0.
func layerValues(m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(perLayerSpecs))
	for _, s := range perLayerSpecs {
		out[s.Name] = metricValue{Value: m[s.Name], N: 1}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("bench: undeclared per-layer metric %q", name))
		}
	}
	return out
}
