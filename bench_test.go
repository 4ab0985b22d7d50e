package clnlr

// One benchmark per reconstructed figure/table (DESIGN.md §4). Each
// iteration regenerates the figure's sweep through experiments.Run (one
// shared helper, benchFigure) at reduced fidelity (QuickConfig) so `go
// test -bench=. -benchtime=1x` exercises the whole evaluation suite in
// minutes; pass -benchtime higher or use cmd/experiments for full-fidelity
// numbers. Headline means are exported through b.ReportMetric so bench
// output doubles as a results sketch.

import (
	"bytes"
	"encoding/json"
	nethttp "net/http"
	"net/http/httptest"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/journey"
	"clnlr/internal/metrics"
	"clnlr/internal/serve"
	"clnlr/internal/sim"
)

// benchConfig returns the per-iteration suite configuration. The seed
// varies per iteration so -benchtime=Nx averages across seeds.
func benchConfig(i int) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Reps = 2
	cfg.Seed = uint64(1000*i + 1)
	return cfg
}

// benchFigure regenerates figure id through experiments.Run once per
// iteration and exports one metric series of the last iteration's figure
// (per scheme at the largest X) into the benchmark output.
func benchFigure(b *testing.B, id, metric string) {
	var fig experiments.Figure
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Run(benchConfig(i), id)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range figs {
			if f.ID == id {
				fig = f
			}
		}
	}
	maxX := 0.0
	for _, p := range fig.Points {
		maxX = max(maxX, p.X)
	}
	for _, p := range fig.Points {
		if v, ok := p.Values[metric]; ok && p.X == maxX {
			b.ReportMetric(v.Mean, p.Scheme+"_"+metric)
		}
	}
}

func BenchmarkFigR1OverheadVsSize(b *testing.B)     { benchFigure(b, "F-R1", "rreq/discovery") }
func BenchmarkFigR2Reachability(b *testing.B)       { benchFigure(b, "F-R2", "success") }
func BenchmarkFigR3PDRVsLoad(b *testing.B)          { benchFigure(b, "F-R3", "pdr") }
func BenchmarkFigR4DelayVsLoad(b *testing.B)        { benchFigure(b, "F-R4", "delay-ms") }
func BenchmarkFigR7NormalizedOverhead(b *testing.B) { benchFigure(b, "F-R7", "ctl/delivered") }
func BenchmarkFigR5ThroughputVsFlows(b *testing.B)  { benchFigure(b, "F-R5", "kbps") }
func BenchmarkFigR6LoadBalance(b *testing.B)        { benchFigure(b, "F-R6", "fwd-max/mean") }
func BenchmarkTabR2Summary(b *testing.B)            { benchFigure(b, "T-R2", "pdr") }
func BenchmarkFigR8Ablation(b *testing.B)           { benchFigure(b, "F-R8", "pdr") }
func BenchmarkFigR9Density(b *testing.B)            { benchFigure(b, "F-R9", "pdr") }
func BenchmarkFigR10Mobility(b *testing.B)          { benchFigure(b, "F-R10", "pdr") }
func BenchmarkFigR11Resilience(b *testing.B)        { benchFigure(b, "F-R11", "pdr") }

// benchRun runs one scenario per iteration through a single warm engine —
// the replication-worker pattern, where iteration i+1 reuses the
// fully-allocated network of iteration i — with an optional metrics
// collector and journey recorder, each reused warm across iterations as
// the sweep workers hold them, and reports simulated-seconds per
// wall-second. With both nil it is exactly Engine.Run.
func benchRun(b *testing.B, sc sim.Scenario, col *metrics.Collector, rec *journey.Recorder) {
	b.Helper()
	b.ReportAllocs()
	eng := sim.NewEngine()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(i + 1)
		if _, err := eng.RunJourney(sc, nil, col, rec); err != nil {
			b.Fatal(err)
		}
	}
	simSeconds := (sc.Warmup + sc.Measure).Seconds() * float64(b.N)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim-s/wall-s")
}

// BenchmarkInstrumentCost is the same-process off/on pair for each
// instrument — the flight recorder (internal/metrics) at its default
// 100 ms sampling interval, the runtime invariant auditor (Scenario.Audit)
// auditing every layer each 100 ms, and the packet journey recorder
// (internal/journey) tracing every flow with decision provenance — and for
// all three at once ("all"), on the default 49-node scenario and on the
// radio-bound 15×15 grid (225 nodes at Table R-1 spacing). The off tier
// is the plain run; each on tier reuses its instruments warm across
// iterations. on/off is the overhead, immune to machine-speed drift
// between separate runs; `make instrument-cost` prints the eight ratios.
func BenchmarkInstrumentCost(b *testing.B) {
	n49 := sim.DefaultScenario()
	n49.Measure = 30 * des.Second
	n49.SessionTime = 10 * des.Second
	n225 := n49
	n225.Rows, n225.Cols = 15, 15
	n225.AreaM = 15 * (1000.0 / 7)
	n225.Flows = 20
	n225.Measure = 10 * des.Second
	instruments := []struct {
		name string
		on   func(b *testing.B, sc sim.Scenario)
	}{
		{"metrics", func(b *testing.B, sc sim.Scenario) {
			benchRun(b, sc, metrics.NewCollector(100*des.Millisecond), nil)
		}},
		{"audit", func(b *testing.B, sc sim.Scenario) {
			sc.Audit = true
			benchRun(b, sc, nil, nil)
		}},
		{"journey", func(b *testing.B, sc sim.Scenario) {
			benchRun(b, sc, nil, journey.NewRecorder(1, true))
		}},
		{"all", func(b *testing.B, sc sim.Scenario) {
			sc.Audit = true
			benchRun(b, sc, metrics.NewCollector(100*des.Millisecond), journey.NewRecorder(1, true))
		}},
	}
	sizes := []struct {
		name string
		sc   sim.Scenario
	}{{"n49", n49}, {"n225", n225}}
	for _, in := range instruments {
		for _, size := range sizes {
			b.Run(in.name+"/"+size.name+"/off", func(b *testing.B) { benchRun(b, size.sc, nil, nil) })
			b.Run(in.name+"/"+size.name+"/on", func(b *testing.B) { in.on(b, size.sc) })
		}
	}
}

// BenchmarkServeThroughput measures the meshsimd request path in-process
// (handler → admission → worker → cache, no network). "cold" submits a
// never-seen scenario per iteration, so each request pays one full
// simulation plus the service overhead. The result is never cached, but
// the engine is: after the first miss each one runs on the engine and
// flight recorder the previous miss returned to the server's pool, so the
// delta against BenchmarkInstrumentCost/metrics/n49/on (also a warm engine)
// is what serving costs. `make profile-serve` profiles it. "hit" submits
// the same scenario every iteration, so after the first request everything
// is a cache hit answered from the body memo: the price of a memoised
// result. "hit-distinct-bytes" pads that scenario's body with a different
// amount of insignificant whitespace each iteration (4096 paddings, four
// times what the body memo holds), so every request is unknown to the
// memo, is decoded and normalised, and hits the result cache: the price of
// the path behind the memo, which must not drift up.
func BenchmarkServeThroughput(b *testing.B) {
	scenario := func(seed uint64) []byte {
		sc := sim.DefaultScenario()
		sc.Name = "bench-serve"
		sc.Seed = seed
		sc.Measure = 30 * des.Second
		sc.SessionTime = 10 * des.Second
		raw, err := json.Marshal(serve.RunRequest{Scenario: mustJSON(b, sc)})
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	submit := func(b *testing.B, h nethttp.Handler, body []byte, wantCache string) {
		req := httptest.NewRequest(nethttp.MethodPost, "/v1/run", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != nethttp.StatusOK {
			b.Fatalf("status %d: %s", rw.Code, rw.Body.String())
		}
		if c := rw.Result().Header.Get("X-Cache"); c != wantCache {
			b.Fatalf("X-Cache = %q, want %q", c, wantCache)
		}
	}

	b.Run("cold", func(b *testing.B) {
		srv, err := serve.New(serve.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, h, scenario(uint64(i+1)), "miss")
		}
	})
	b.Run("hit", func(b *testing.B) {
		srv, err := serve.New(serve.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		body := scenario(1)
		submit(b, h, body, "miss") // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, h, body, "hit")
		}
	})
	b.Run("hit-distinct-bytes", func(b *testing.B) {
		srv, err := serve.New(serve.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		body := scenario(1)
		submit(b, h, body, "miss") // prime the cache
		inner := body[1 : len(body)-1]
		spaces := bytes.Repeat([]byte(" "), 65)
		var padded []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			padded = append(padded[:0], '{')
			padded = append(padded, spaces[:1+i%64]...)
			padded = append(padded, inner...)
			padded = append(padded, spaces[:i/64%64]...)
			padded = append(padded, '}')
			submit(b, h, padded, "hit")
		}
		b.StopTimer()
		if n := srv.Stats().DigestHits; n != 0 {
			b.Fatalf("%d of %d padded requests were answered from the body memo", n, b.N)
		}
	})
}

func mustJSON(b *testing.B, v any) []byte {
	b.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}
