package clnlr

// One benchmark per reconstructed figure/table (DESIGN.md §4). Each
// iteration regenerates the figure at reduced fidelity (QuickConfig) so
// `go test -bench=. -benchtime=1x` exercises the whole evaluation suite in
// minutes; pass -benchtime higher or use cmd/experiments for full-fidelity
// numbers. Headline means are exported through b.ReportMetric so bench
// output doubles as a results sketch.

import (
	"bytes"
	"encoding/json"
	"fmt"
	nethttp "net/http"
	"net/http/httptest"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/experiments"
	"clnlr/internal/journey"
	"clnlr/internal/metrics"
	"clnlr/internal/rng"
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

// report exports one metric series (per scheme at the largest X) from a
// figure into the benchmark output.
func report(b *testing.B, f experiments.Figure, metric string) {
	b.Helper()
	maxX := 0.0
	for _, p := range f.Points {
		if p.X > maxX {
			maxX = p.X
		}
	}
	for _, p := range f.Points {
		if p.X != maxX {
			continue
		}
		if v, ok := p.Values[metric]; ok {
			b.ReportMetric(v.Mean, p.Scheme+"_"+metric)
		}
	}
}

func BenchmarkFigR1OverheadVsSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r1, _, err := experiments.FigR1R2(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, r1, "rreq/discovery")
		}
	}
}

func BenchmarkFigR2Reachability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, r2, err := experiments.FigR1R2(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, r2, "success")
		}
	}
}

func BenchmarkFigR3PDRVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r3, _, _, err := experiments.FigR3R4R7(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, r3, "pdr")
		}
	}
}

func BenchmarkFigR4DelayVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, r4, _, err := experiments.FigR3R4R7(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, r4, "delay-ms")
		}
	}
}

func BenchmarkFigR7NormalizedOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, r7, err := experiments.FigR3R4R7(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, r7, "ctl/delivered")
		}
	}
}

func BenchmarkFigR5ThroughputVsFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.FigR5(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "kbps")
		}
	}
}

func BenchmarkFigR6LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.FigR6(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "fwd-max/mean")
		}
	}
}

func BenchmarkTabR2Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.TabR2(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "pdr")
		}
	}
}

func BenchmarkFigR8Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.FigR8(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "pdr")
		}
	}
}

func BenchmarkFigR9Density(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.FigR9(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "pdr")
		}
	}
}

func BenchmarkFigR10Mobility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.FigR10(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "pdr")
		}
	}
}

func BenchmarkFigR11Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.FigR11(benchConfig(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(b, f, "pdr")
		}
	}
}

// benchThroughput runs one scenario per iteration through a single warm
// engine — the replication-worker pattern, where iteration i+1 reuses the
// fully-allocated network of iteration i — and reports simulated-seconds
// per wall-second.
func benchThroughput(b *testing.B, sc sim.Scenario) {
	b.Helper()
	benchInstrumented(b, sc, nil, nil)
}

// benchInstrumented is benchThroughput with an optional metrics collector
// and journey recorder, each reused warm across iterations as the sweep
// workers hold them; with both nil it is exactly Engine.Run.
func benchInstrumented(b *testing.B, sc sim.Scenario, col *metrics.Collector, rec *journey.Recorder) {
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

// BenchmarkSimulatorThroughput measures raw simulator speed on the default
// 49-node scenario.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Measure = 30 * des.Second
	sc.SessionTime = 10 * des.Second
	benchThroughput(b, sc)
}

// BenchmarkSimulatorThroughputMetrics is the same-process A/B for the
// flight recorder (internal/metrics) at its default 100 ms sampling
// interval: the plain run against the same scenario with every node's
// cross-layer state sampled each tick. Like the Audit and Journey pairs
// below, on/off is the instrument's true overhead, immune to machine-speed
// drift between separate runs (`make instrument-cost` prints all three).
func BenchmarkSimulatorThroughputMetrics(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Measure = 30 * des.Second
	sc.SessionTime = 10 * des.Second
	b.Run("off", func(b *testing.B) {
		benchThroughput(b, sc)
	})
	b.Run("on", func(b *testing.B) {
		benchInstrumented(b, sc, metrics.NewCollector(100*des.Millisecond), nil)
	})
}

// BenchmarkSimulatorThroughputLargeN scales the deployment to a 15×15 grid
// (225 nodes) at Table R-1 node spacing, the regime where the O(N) portions
// of the hot path (the arrival loops over every receiver) dominate.
func BenchmarkSimulatorThroughputLargeN(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Rows, sc.Cols = 15, 15
	sc.AreaM = 15 * (1000.0 / 7)
	sc.Flows = 20
	sc.Measure = 10 * des.Second
	sc.SessionTime = 10 * des.Second
	benchThroughput(b, sc)
}

// BenchmarkSimulatorThroughputAudibleSets is the same-process A/B for the
// radio hot path: the memoised audible-set default against the exhaustive
// per-transmission reference scan, on both the default 49-node scenario
// and the radio-bound 225-node grid. Both tiers run inside one benchmark
// process, so their ratios are immune to the up-to-2× wall-clock drift
// between separate runs on this machine.
// The acceptance ratio for PR 7 is largen/memo vs largen/reference.
func BenchmarkSimulatorThroughputAudibleSets(b *testing.B) {
	scenarios := []struct {
		name string
		sc   sim.Scenario
	}{
		{"default", func() sim.Scenario {
			sc := sim.DefaultScenario()
			sc.Measure = 30 * des.Second
			sc.SessionTime = 10 * des.Second
			return sc
		}()},
		{"largen", func() sim.Scenario {
			sc := sim.DefaultScenario()
			sc.Rows, sc.Cols = 15, 15
			sc.AreaM = 15 * (1000.0 / 7)
			sc.Flows = 20
			sc.Measure = 10 * des.Second
			sc.SessionTime = 10 * des.Second
			return sc
		}()},
	}
	for _, s := range scenarios {
		b.Run(s.name+"/memo", func(b *testing.B) {
			benchThroughput(b, s.sc)
		})
		b.Run(s.name+"/reference", func(b *testing.B) {
			sc := s.sc
			sc.ReferenceRadio = true
			benchThroughput(b, sc)
		})
	}
}

// BenchmarkSimulatorThroughputAudit is the same-process A/B for the
// runtime invariant auditor (Scenario.Audit): the default un-audited run
// against the same scenario with the full invariant sweep (packet
// conservation, DES sanity, radio coherence, routing invariants) firing
// every 100 ms of simulated time. off/on ratios are the auditor's true
// overhead, immune to machine-speed drift between separate runs; the
// off tier must stay within the bench-compare gate of the committed
// BenchmarkSimulatorThroughput baseline (auditing off costs nothing).
func BenchmarkSimulatorThroughputAudit(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Measure = 30 * des.Second
	sc.SessionTime = 10 * des.Second
	b.Run("off", func(b *testing.B) {
		benchThroughput(b, sc)
	})
	b.Run("on", func(b *testing.B) {
		asc := sc
		asc.Audit = true
		benchThroughput(b, asc)
	})
}

// BenchmarkSimulatorThroughputJourney is the same-process A/B for the
// packet journey tracer (internal/journey): the default untraced run
// against the same scenario with every flow's packets traced and full
// decision provenance recorded. The off tier is the plain RunJourney path
// with a nil recorder — the cost of the hooks existing — and must stay
// within the bench-compare gate of the committed
// BenchmarkSimulatorThroughput baseline; the on tier reuses one recorder
// warm across iterations, matching the sweep workers.
func BenchmarkSimulatorThroughputJourney(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Measure = 30 * des.Second
	sc.SessionTime = 10 * des.Second
	b.Run("off", func(b *testing.B) {
		benchThroughput(b, sc)
	})
	b.Run("on", func(b *testing.B) {
		benchInstrumented(b, sc, nil, journey.NewRecorder(1, true))
	})
}

// BenchmarkDESChurn measures the DES kernel alone in the hold model: a
// steady population of pending events where every firing schedules its
// replacement. Sub-benchmarks sweep the population size to expose how the
// event list's cost scales with pending count (the 4-ary heap's sifts grow
// with log₄ n; simulator runs sit between 10² and 10³·⁵ pending).
func BenchmarkDESChurn(b *testing.B) {
	for _, pending := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			s := des.NewSim()
			src := rng.New(1)
			var h churnHandler
			h.s = s
			h.src = src
			for i := 0; i < pending; i++ {
				s.ScheduleCall(des.Time(src.Intn(int(des.Millisecond))), &h, 0, 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fire one event (which reschedules itself) per iteration.
				h.budget = 1
				s.RunUntil(des.MaxTime)
				if h.budget != 0 {
					b.Fatal("queue drained")
				}
			}
		})
	}
}

// churnHandler reschedules itself with a random delay on every firing and
// stops the sim once the per-iteration budget is spent.
type churnHandler struct {
	s      *des.Sim
	src    *rng.Source
	budget int
}

func (h *churnHandler) HandleEvent(int32, uint32) {
	h.s.ScheduleCall(des.Time(h.src.Intn(int(des.Millisecond))+1), h, 0, 0)
	h.budget--
	if h.budget == 0 {
		h.s.Stop()
	}
}

// BenchmarkDESSchedule compares the two scheduling APIs on an otherwise
// idle kernel: the closure path allocates a func value per event, the
// typed path reuses pooled nodes and stays allocation-free.
func BenchmarkDESSchedule(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		s := des.NewSim()
		n := 0
		for i := 0; i < b.N; i++ {
			s.Schedule(des.Microsecond, func() { n++ })
			s.RunUntil(s.Now() + des.Millisecond)
		}
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		s := des.NewSim()
		var h countHandler
		for i := 0; i < b.N; i++ {
			s.ScheduleCall(des.Microsecond, &h, 0, 0)
			s.RunUntil(s.Now() + des.Millisecond)
		}
	})
}

type countHandler struct{ n int }

func (h *countHandler) HandleEvent(int32, uint32) { h.n++ }

// BenchmarkReplicationSweep measures the runner-level path the experiment
// suite actually takes: one iteration fans a replication set out across the
// worker pool via sim.RunReplications, so per-replication setup cost
// (placement, network build vs warm reset) is part of the measurement, not
// amortised away. Single worker keeps the number comparable across machines
// with different core counts.
func BenchmarkReplicationSweep(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Measure = 5 * des.Second
	sc.SessionTime = 5 * des.Second
	const reps = 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc.Seed = uint64(1000*i + 1)
		if _, err := sim.RunReplications(sc, reps, 1); err != nil {
			b.Fatal(err)
		}
	}
	simSeconds := (sc.Warmup + sc.Measure).Seconds() * reps * float64(b.N)
	b.ReportMetric(simSeconds/b.Elapsed().Seconds(), "sim-s/wall-s")
}

// BenchmarkServeThroughput measures the meshsimd request path in-process
// (handler → admission → worker → cache, no network). "cold" submits a
// never-seen scenario per iteration, so each request pays one full
// simulation plus the service overhead. The result is never cached, but
// the engine is: after the first miss each one runs on the engine and
// flight recorder the previous miss returned to the server's pool, so the
// delta against BenchmarkSimulatorThroughputMetrics (also a warm engine)
// is what serving costs. `make profile-serve` profiles it. "hit" submits
// the same scenario every iteration, so after the first request everything
// is a cache hit answered from the request digest: the price of a memoised
// result. "hit-distinct-bytes" pads that scenario's body with a different
// amount of insignificant whitespace each iteration (4096 paddings, four
// times what the digest memo holds), so every request is unknown to the
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
			b.Fatalf("%d of %d padded requests were answered from the digest memo", n, b.N)
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
