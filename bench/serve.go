package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"
)

// serveWorkload drives the meshsimd handler in-process, through
// net/http/httptest recorders: no socket, not even loopback, so the
// numbers are the daemon's own cost and exclude any network. Two
// closed-loop clients (each sends its next request when the previous one
// has answered) run a fixed script; one pass of the script is a cycle, on
// a fresh server and cache directory so that phase A always misses.
type serveWorkload struct {
	opt     options
	tmpRoot string

	runs      []scenario // phase A keys
	runBodies [][]byte
	hitSeq    [2][]int // phase B: each client's Zipf-drawn key sequence
	sweep     scenario
	sweepBody []byte
	schemes   []string
	reps      int

	engines *engineWorkload // the phase A scenarios, for the per-layer counts

	setupS []float64
	cycles []cycleSample
	// Phase samples of the latest cycle only: samples kept across cycles
	// would grow with the cycle count and show up in live_heap_mb.
	missMs  []float64
	hitUs   []float64
	diskUs  []float64
	served  [][]byte // phase A bodies of the latest cycle
	last    *server
	lastDir string
	chk     checker
}

type cycleSample struct {
	missWallS, hitWallS, sweepColdS float64
	sweepHitUs                      float64
	mallocs                         float64
	requests                        int
	p50Ms, p90Ms                    float64 // over every request of the cycle
	stats                           serveStats
	reportBytes                     int
}

func newServeWorkload(index int, opt options, tmpRoot string) (*serveWorkload, error) {
	w := &serveWorkload{opt: opt, tmpRoot: tmpRoot, schemes: []string{"clnlr", "flood", "gossip"}, reps: 4}
	keys, hits := 24, 20000
	runMeasure, sweepMeasure := 20*time.Second, 10*time.Second
	if opt.short {
		keys, hits, w.reps = 4, 400, 1
		runMeasure, sweepMeasure = 2*time.Second, 2*time.Second
	}
	base := paperScenario(runMeasure)
	base.Name = wlServeMix
	for k := 0; k < keys; k++ {
		sc := withSchemeSeed(base, "clnlr", simSeed(opt.seed, index, k))
		body, err := runRequestBody(sc)
		if err != nil {
			return nil, fmt.Errorf("encoding run request: %w", err)
		}
		w.runs = append(w.runs, sc)
		w.runBodies = append(w.runBodies, body)
	}
	w.sweep = withSchemeSeed(paperScenario(sweepMeasure), "clnlr", simSeed(opt.seed, index, keys))
	w.sweep.Name = wlServeMix
	var err error
	if w.sweepBody, err = sweepRequestBody(w.sweep, w.schemes, w.reps); err != nil {
		return nil, fmt.Errorf("encoding sweep request: %w", err)
	}
	rnd := rand.New(rand.NewSource(int64(opt.seed)))
	zipf := rand.NewZipf(rnd, 1.1, 1, uint64(keys-1))
	for i := 0; i < hits; i++ {
		w.hitSeq[i%2] = append(w.hitSeq[i%2], int(zipf.Uint64()))
	}
	w.engines = &engineWorkload{name: wlServeMix, opt: opt, pairs: w.runs, warmups: []int{0}, first: make([]runResult, keys)}
	return w, nil
}

func (w *serveWorkload) workloadName() string { return wlServeMix }

type response struct {
	code  int
	cache string
	body  []byte
	took  time.Duration
}

// post times ServeHTTP alone: send to full body, without the client-side
// cost of building the request.
func post(h http.Handler, path string, body []byte) response {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rw := httptest.NewRecorder()
	t := time.Now()
	h.ServeHTTP(rw, req)
	took := time.Since(t)
	return response{rw.Code, rw.Header().Get("X-Cache"), rw.Body.Bytes(), took}
}

// clients runs fn as the two closed-loop clients and waits for both.
func clients(fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// setup is the daemon's start-up as a user sees it: cache directory,
// serve.New, and one miss and one hit on a key outside the script.
func (w *serveWorkload) setup() {
	runtime.GC()
	t := time.Now()
	dir, srv, ok := w.start()
	if ok {
		sc := withSchemeSeed(w.runs[0], "clnlr", w.runs[0].Seed+500)
		body, err := runRequestBody(sc)
		w.chk.check(err == nil, "setup_error", "%v", err)
		for _, want := range []string{"miss", "hit"} {
			r := post(srv.handler(), "/v1/run", body)
			w.chk.check(r.code == http.StatusOK && r.cache == want, "setup_request_failed", "status %d X-Cache %q, want %q", r.code, r.cache, want)
		}
		w.stop(srv, dir)
	}
	w.setupS = append(w.setupS, time.Since(t).Seconds())
}

func (w *serveWorkload) start() (dir string, srv *server, ok bool) {
	dir, err := os.MkdirTemp(w.tmpRoot, "cache-")
	if !w.chk.check(err == nil, "setup_error", "%v", err) {
		return "", nil, false
	}
	srv, err = newServer(dir)
	if !w.chk.check(err == nil, "setup_error", "serve.New: %v", err) {
		os.RemoveAll(dir)
		return "", nil, false
	}
	return dir, srv, true
}

func (w *serveWorkload) stop(srv *server, dir string) {
	w.chk.check(srv.close() == nil, "shutdown_error", "server did not drain")
	os.RemoveAll(dir)
}

func (w *serveWorkload) round() time.Duration {
	t := time.Now()
	w.cycle(nil)
	return time.Since(t)
}

// cycle runs the script once. Every request is an operation: a non-200
// answer, a wrong X-Cache or a body that differs from its miss fails it.
func (w *serveWorkload) cycle(tr *tracer) {
	if w.last != nil {
		w.stop(w.last, w.lastDir)
		w.last = nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	dir, srv, ok := w.start()
	if !ok {
		return
	}
	h := srv.handler()
	var cs cycleSample
	var opMs []float64         // latency of every request of the cycle
	var lat [2][]time.Duration // per client, merged after each phase
	w.missMs, w.hitUs, w.diskUs = w.missMs[:0], w.hitUs[:0], w.diskUs[:0]
	// merge folds the clients' latencies into the cycle's operations and,
	// for the phases with a metric of their own, into that phase's sample.
	merge := func(phase *[]float64, unit func(time.Duration) float64) {
		for c := range lat {
			for _, d := range lat[c] {
				if phase != nil {
					*phase = append(*phase, unit(d))
				}
				opMs = append(opMs, ms(d))
			}
			lat[c] = lat[c][:0]
		}
	}
	var mu sync.Mutex // the checker is shared by the two clients
	check := func(ok bool, name, format string, args ...any) bool {
		mu.Lock()
		defer mu.Unlock()
		return w.chk.check(ok, name, format, args...)
	}

	// A: never-seen scenarios, so every request is a miss.
	served := make([][]byte, len(w.runs))
	tr.begin("serve.Handler.ServeHTTP[A:miss]")
	t := time.Now()
	clients(func(c int) {
		for i := c; i < len(w.runs); i += 2 {
			r := post(h, "/v1/run", w.runBodies[i])
			check(r.code == http.StatusOK && r.cache == "miss", "miss_failed", "key %d: status %d X-Cache %q", i, r.code, r.cache)
			served[i] = r.body
			lat[c] = append(lat[c], r.took)
		}
	})
	cs.missWallS = time.Since(t).Seconds()
	tr.end()
	merge(&w.missMs, ms)
	w.served = served
	for _, b := range served {
		cs.reportBytes += len(b)
	}

	// B: Zipf-distributed repeats of those keys, so every request is a
	// memory hit and must return the bytes its miss returned.
	corrupt := w.opt.inject.corruptHit
	tr.begin("serve.Handler.ServeHTTP[B:hit]")
	t = time.Now()
	clients(func(c int) {
		for n, i := range w.hitSeq[c] {
			r := post(h, "/v1/run", w.runBodies[i])
			if corrupt && c == 0 && n == 0 && len(r.body) > 0 {
				r.body[len(r.body)/2] ^= 0xff
			}
			check(r.code == http.StatusOK && r.cache == "hit", "hit_failed", "key %d: status %d X-Cache %q", i, r.code, r.cache)
			check(bytes.Equal(r.body, served[i]), "hit_body_differs", "key %d", i)
			lat[c] = append(lat[c], r.took)
		}
	})
	cs.hitWallS = time.Since(t).Seconds()
	tr.end()
	merge(&w.hitUs, us)
	st := srv.stats()
	check(st.EngineRuns == uint64(len(w.runs)), "engine_runs", "%d engine runs after A+B, want %d", st.EngineRuns, len(w.runs))

	// C: both clients submit the same sweep at once (one execution), then
	// one of them asks again (a hit).
	var sweepBodies [2][]byte
	tr.begin("serve.Handler.ServeHTTP[C:sweep]")
	t = time.Now()
	clients(func(c int) {
		r := post(h, "/v1/sweep", w.sweepBody)
		check(r.code == http.StatusOK, "sweep_failed", "status %d: %s", r.code, firstLine(r.body))
		sweepBodies[c] = r.body
		lat[c] = append(lat[c], r.took)
	})
	cs.sweepColdS = time.Since(t).Seconds()
	tr.end()
	check(bytes.Equal(sweepBodies[0], sweepBodies[1]), "sweep_bodies_differ", "concurrent identical submissions")
	r := post(h, "/v1/sweep", w.sweepBody)
	check(r.code == http.StatusOK && r.cache == "hit" && bytes.Equal(r.body, sweepBodies[0]), "sweep_hit_failed", "status %d X-Cache %q", r.code, r.cache)
	cs.sweepHitUs = us(r.took)
	lat[0] = append(lat[0], r.took)
	merge(nil, nil)
	st = srv.stats()
	check(st.EngineRuns == uint64(len(w.runs))+1, "sweep_not_shared", "%d engine runs after C, want %d", st.EngineRuns, len(w.runs)+1)
	check(st.Shed == 0, "shed", "%d submissions shed", st.Shed)
	cs.stats = st

	// D: a second daemon on the same cache directory reads every key once
	// from the disk tier.
	disk, err := newServer(dir)
	if check(err == nil, "setup_error", "second serve.New: %v", err) {
		tr.begin("serve.Handler.ServeHTTP[D:disk]")
		for i, body := range w.runBodies {
			r := post(disk.handler(), "/v1/run", body)
			check(r.code == http.StatusOK && r.cache == "hit" && bytes.Equal(r.body, served[i]), "disk_hit_failed", "key %d: status %d X-Cache %q", i, r.code, r.cache)
			lat[0] = append(lat[0], r.took)
		}
		tr.end()
		merge(&w.diskUs, us)
		check(disk.stats().EngineRuns == 0, "disk_tier_recomputed", "%d engine runs on the second daemon", disk.stats().EngineRuns)
		check(disk.close() == nil, "shutdown_error", "second server did not drain")
	}

	runtime.ReadMemStats(&m1)
	cs.mallocs = float64(m1.Mallocs - m0.Mallocs)
	cs.requests, cs.p50Ms, cs.p90Ms = len(opMs), quantile(opMs, 0.5), quantile(opMs, 0.9)
	w.cycles = append(w.cycles, cs)
	// The latest server stays up until the next cycle so live_heap_mb
	// sees a daemon with a full cache.
	w.last, w.lastDir = srv, dir
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

func (w *serveWorkload) simSecondsPerCycle() float64 {
	t := float64(len(w.schemes)*w.reps) * simSeconds(w.sweep)
	for _, sc := range w.runs {
		t += simSeconds(sc)
	}
	return t
}

// verifyServed checks that what the daemon served for every phase A key
// is, byte for byte, the canonical report computed without the daemon.
// It returns the median direct-run time in milliseconds.
func (w *serveWorkload) verifyServed() float64 {
	var directMs []float64
	for i, sc := range w.runs {
		t := time.Now()
		want, err := directRun(sc)
		directMs = append(directMs, ms(time.Since(t)))
		if w.chk.check(err == nil, "direct_run_error", "key %d: %v", i, err) && i < len(w.served) {
			w.chk.check(bytes.Equal(want, w.served[i]), "served_differs_from_direct", "key %d", i)
		}
	}
	return median(directMs)
}

func (w *serveWorkload) finish() outcome {
	w.verifyServed()
	var speed, allocs, p50, p90 []float64
	ops := 0
	for _, c := range w.cycles {
		speed = append(speed, w.simSecondsPerCycle()/(c.missWallS+c.sweepColdS))
		allocs = append(allocs, c.mallocs/float64(c.requests))
		p50 = append(p50, c.p50Ms)
		p90 = append(p90, c.p90Ms)
		ops += c.requests
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(w.last)
	w.release()

	out := w.chk.outcome(ops)
	out.metrics = map[string]metricValue{
		"setup_s":          summarize(w.setupS),
		"sim_s_per_wall_s": summarize(speed),
		"op_p50_ms":        summarize(p50),
		"op_p90_ms":        summarize(p90),
		"allocs_per_op":    summarize(allocs),
		"live_heap_mb":     {Value: heap, N: 1},
	}
	return out
}

// release shuts the last cycle's server down and removes its directory.
func (w *serveWorkload) release() {
	if w.last != nil {
		w.stop(w.last, w.lastDir)
		w.last = nil
	}
}

func (w *serveWorkload) layers(tr *tracer) outcome {
	// Engine-side layers: the phase A scenarios run directly.
	eng := w.engines.layers(tr)

	// A discarded cycle first, so that the untraced and the traced cycle
	// both run warm and their ratio is the tracing overhead.
	w.setup()
	w.cycle(nil)
	t := time.Now()
	w.cycle(nil)
	untraced := time.Since(t)
	t = time.Now()
	w.cycle(tr)
	traced := time.Since(t)
	tr.begin("sim.NewEngine+Engine.RunJourney[direct]")
	directMs := w.verifyServed()
	tr.end()
	w.release()

	c := w.cycles[len(w.cycles)-1]
	hits := len(w.hitSeq[0]) + len(w.hitSeq[1])
	m := map[string]float64{}
	m["serve.miss_p50_ms"] = median(w.missMs)
	m["serve.miss_overhead_ms"] = median(w.missMs) - directMs
	m["serve.hit_p50_us"] = median(w.hitUs)
	m["serve.hit_p99_us"] = quantile(w.hitUs, 0.99)
	m["serve.hit_disk_us"] = median(w.diskUs)
	m["serve.sweep_cold_s"] = c.sweepColdS
	m["serve.sweep_hit_us"] = c.sweepHitUs
	m["serve.engine_runs"] = float64(c.stats.EngineRuns)
	m["serve.cache_hit_ratio"] = ratio(float64(c.stats.CacheHits), float64(c.stats.CacheHits+c.stats.CacheMisses))
	m["serve.shed"] = float64(c.stats.Shed)
	m["serve.report_bytes"] = float64(c.reportBytes) / float64(len(w.runs))
	m["serve.req_per_s"] = ratio(float64(hits), c.hitWallS)
	w.experimentCosts(tr, m)

	out := w.chk.outcome(2 * c.requests)
	out.attempted += eng.attempted
	out.failed += eng.failed
	out.failures = append(out.failures, eng.failures...)
	out.metrics = eng.metrics
	for name, v := range m {
		out.metrics[name] = metricValue{Value: v, N: 1}
	}
	// The engine pass measured tracing overhead on direct runs; the
	// daemon's own is the traced cycle against the untraced one.
	out.metrics["trace.overhead_ratio"] = metricValue{Value: ratio(float64(traced), float64(untraced)), N: 1}
	return out
}

// experimentCosts calls the sweep planner directly on the phase C cells:
// one and two workers, checkpoints on and off, and a resume over a
// complete checkpoint directory.
func (w *serveWorkload) experimentCosts(tr *tracer, m map[string]float64) {
	cells := float64(len(w.schemes))
	timed := func(name string, workers int, dir string, resume bool) float64 {
		tr.begin("experiments.RunCells[" + name + "]")
		defer tr.end()
		t := time.Now()
		err := runCells(w.sweep, w.schemes, w.reps, workers, dir, resume)
		d := time.Since(t).Seconds()
		w.chk.check(err == nil, "run_cells_error", "%s: %v", name, err)
		return d
	}
	dir, err := os.MkdirTemp(w.tmpRoot, "cells-")
	if !w.chk.check(err == nil, "setup_error", "%v", err) {
		return
	}
	defer os.RemoveAll(dir)
	w1 := timed("workers=1", 1, "", false)
	w2 := timed("workers=2", 2, "", false)
	checkpointed := timed("workers=2,checkpoint", 2, dir, false)
	resumed := timed("workers=2,resume", 2, dir, true)
	m["experiments.cells_per_s_w1"] = ratio(cells, w1)
	m["experiments.cells_per_s_w2"] = ratio(cells, w2)
	m["experiments.parallel_eff"] = ratio(w1, 2*w2)
	m["experiments.checkpoint_ms"] = (checkpointed - w2) * 1000
	m["experiments.resume_ms"] = resumed * 1000
}
