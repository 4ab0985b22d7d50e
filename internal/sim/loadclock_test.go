package sim

import (
	"math"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/mac"
	"clnlr/internal/metrics"
	"clnlr/internal/node"
)

// perMacSampling is the load-sampling arrangement the network clock in
// node.StartAll replaced, kept as the oracle: one self-rescheduling
// sampler per MAC, started in ID order before anything else in the run,
// so every window is closed by N separate events. The clock still runs
// beside them; at each instant it comes second, finds every window
// already closed (zero length) and changes nothing. A run under this hook
// therefore executes N events per window more than a plain one, and the
// arrangement it replaced N−1 more.
func perMacSampling(simk *des.Sim, nodes []*node.Node, _ Scenario) {
	for _, n := range nodes {
		s := &macSampler{simk, n.Mac}
		simk.ScheduleCall(n.Mac.LoadSampleInterval(), s, 0, 0)
	}
}

// macSampler closes one MAC's load window per tick and schedules the
// next one then, so each tick takes its sequence number when the one
// before fires, as the per-MAC clocks did. A train would take them all
// up front and reorder ticks against equal-time events.
type macSampler struct {
	simk *des.Sim
	m    *mac.Mac
}

func (s *macSampler) HandleEvent(int32, uint32) {
	s.m.SampleLoad()
	s.simk.ScheduleCall(s.m.LoadSampleInterval(), s, 0, 0)
}

// sampling installs perMacSampling when oracle is set; the returned func
// removes it again.
func sampling(oracle bool) (restore func()) {
	if oracle {
		TestHookPrepared = perMacSampling
	}
	return func() { TestHookPrepared = nil }
}

// loadWindows is how many load windows close during a run.
func loadWindows(sc Scenario) int {
	return int((sc.Warmup + sc.Measure) / sc.Mac.LoadSampleInterval)
}

// runCounted runs sc on eng, under perMacSampling when oracle is set, and
// returns the Result with the number of events the kernel executed.
func runCounted(t *testing.T, eng *Engine, sc Scenario, oracle bool) (Result, uint64) {
	t.Helper()
	defer sampling(oracle)()
	r, err := eng.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r, eng.simk.Executed()
}

// TestLoadClockSavesNMinusOneEventsPerWindow: on the default 90 s, 49-node
// run the one clock executes 900 events where per-MAC tickers executed
// 44 100 — 43 200 fewer — and no field of the Result knows.
func TestLoadClockSavesNMinusOneEventsPerWindow(t *testing.T) {
	sc := DefaultScenario()
	n, windows := sc.NodeCount(), loadWindows(sc)
	if n != 49 || windows != 900 {
		t.Fatalf("default scenario has %d nodes and %d load windows, want 49 and 900", n, windows)
	}
	clock, clockEvents := runCounted(t, NewEngine(), sc, false)
	perMac, oracleEvents := runCounted(t, NewEngine(), sc, true)
	if clock != perMac {
		t.Errorf("Result moved:\n  clock   %+v\n  per-MAC %+v", clock, perMac)
	}
	// The oracle run carries the clock's own 900 events on top of the
	// per-MAC arrangement's N·900.
	if saved := oracleEvents - uint64(windows) - clockEvents; saved != 43_200 || saved != uint64((n-1)*windows) {
		t.Errorf("the clock saves %d events over per-MAC tickers, want (N−1)·windows = 43200", saved)
	}
}

// TestLoadClockBitEqualPerMacTickers compares what the routing layer
// reads — every node's LoadStats, at every window — between the clock and
// the per-MAC oracle on a 49-node run with churn and mobility, bit for
// bit. The collector's 100 ms tick shares every instant with the load
// clock, so its series is that record; the nodes' final estimates close
// the last window.
func TestLoadClockBitEqualPerMacTickers(t *testing.T) {
	sc := DefaultScenario()
	sc.Warmup, sc.Measure, sc.SessionTime = 2*des.Second, 18*des.Second, 5*des.Second
	sc.MobilitySpeed = 10
	sc.Faults.MeanUpTime = 6 * des.Second
	sc.Faults.MeanDownTime = 2 * des.Second

	type run struct {
		col   *metrics.Collector
		final [][3]uint64
	}
	observe := func(oracle bool) run {
		defer sampling(oracle)()
		eng := NewEngine()
		r := run{col: metrics.NewCollector(sc.Mac.LoadSampleInterval)}
		if _, err := eng.RunJourney(sc, nil, r.col, nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range eng.nodes {
			ls := n.Mac.LoadStats()
			r.final = append(r.final, loadBits(ls.QueueOcc, ls.BusyFrac, ls.Load))
		}
		return r
	}
	clock, perMac := observe(false), observe(true)

	if clock.col.Ticks() != loadWindows(sc)+1 || perMac.col.Ticks() != clock.col.Ticks() {
		t.Fatalf("collector took %d and %d ticks, want %d", clock.col.Ticks(), perMac.col.Ticks(), loadWindows(sc)+1)
	}
	loaded, decaying := 0, 0
	for k := 0; k < clock.col.Ticks(); k++ {
		for i := 0; i < clock.col.NumNodes(); i++ {
			a, b := clock.col.At(k, i), perMac.col.At(k, i)
			if loadBits(a.QueueOcc, a.BusyFrac, a.Load) != loadBits(b.QueueOcc, b.BusyFrac, b.Load) || a.Up != b.Up {
				t.Fatalf("tick %d node %d: clock %+v, per-MAC tickers %+v", k, i, a, b)
			}
			if a.Load > 0 {
				loaded++
				if !a.Up {
					decaying++
				}
			}
		}
	}
	for i := range clock.final {
		if clock.final[i] != perMac.final[i] {
			t.Fatalf("node %d ends the run at %x under the clock, %x under per-MAC tickers", i, clock.final[i], perMac.final[i])
		}
	}
	// The comparison must have had something to compare: estimates that
	// moved, and crashed nodes whose estimate was still decaying.
	if loaded < 1000 || decaying == 0 {
		t.Fatalf("only %d nonzero load samples, %d of them on a crashed node", loaded, decaying)
	}
}

func loadBits(q, b, l float64) [3]uint64 {
	return [3]uint64{math.Float64bits(q), math.Float64bits(b), math.Float64bits(l)}
}
