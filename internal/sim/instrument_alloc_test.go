package sim

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/metrics"
	"clnlr/internal/node"
)

// instrumentedScenario is the default 7×7 CLNLR run with the auditor on;
// the tests below add the 100 ms collector.
func instrumentedScenario() Scenario {
	sc := DefaultScenario()
	sc.Audit = true
	return sc
}

// TestInstrumentTicksAllocateNothing: on a warm engine and collector, in
// the middle of a run with traffic flowing, one whole audit point and one
// whole sampler tick must not allocate — a per-tick allocation times 49
// nodes times 300 ticks is what made "everything on" cost 3× a plain run.
func TestInstrumentTicksAllocateNothing(t *testing.T) {
	sc := instrumentedScenario()
	e := NewEngine()
	col := metrics.NewCollector(100 * des.Millisecond)
	if _, err := e.RunJourney(sc, nil, col, nil); err != nil { // warm engine and collector
		t.Fatal(err)
	}

	var auditAllocs, sampleAllocs float64
	var auditErr error
	TestHookPrepared = func(simk *des.Sim, nodes []*node.Node, _ Scenario) {
		simk.At(sc.Warmup+sc.Measure/2+des.Microsecond, func() {
			a := &auditor{e: e, lastSeq: make([]uint32, len(nodes)), lastDF: make([]uint64, len(nodes))}
			for i, n := range nodes {
				a.lastSeq[i] = n.Agent.SeqNo()
			}
			auditAllocs = testing.AllocsPerRun(10, a.check)
			auditErr = a.Err()
			// The run is half over, so the warm collector has room for
			// these extra ticks.
			s := &sampler{e: e, col: col}
			sampleAllocs = testing.AllocsPerRun(10, func() { s.HandleEvent(0, 0) })
		})
	}
	defer func() { TestHookPrepared = nil }()
	if _, err := e.RunJourney(sc, nil, col, nil); err != nil {
		t.Fatal(err)
	}
	if auditErr != nil {
		t.Fatalf("mid-run audit point: %v", auditErr)
	}
	if auditAllocs != 0 {
		t.Errorf("one audit point allocates %v times, want 0", auditAllocs)
	}
	if sampleAllocs != 0 {
		t.Errorf("one sampler tick allocates %v times, want 0", sampleAllocs)
	}
}

// TestInstrumentedRunAllocBudget: a whole run with the 100 ms collector
// and the auditor on may allocate at most 500 times more than the same
// scenario run plain, on an engine and collector warmed by two runs. (The
// journey recorder is left out: the journeys it stores are data.)
func TestInstrumentedRunAllocBudget(t *testing.T) {
	on := instrumentedScenario()
	off := on
	off.Audit = false
	e := NewEngine()
	col := metrics.NewCollector(100 * des.Millisecond)
	run := func(sc Scenario, col *metrics.Collector) func() {
		return func() {
			if _, err := e.RunJourney(sc, nil, col, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// AllocsPerRun's own warm-up call is the second warming run.
	run(on, col)()
	instrumented := testing.AllocsPerRun(1, run(on, col))
	run(off, nil)()
	plain := testing.AllocsPerRun(1, run(off, nil))
	t.Logf("plain %v allocs, collector + audit %v", plain, instrumented)
	if instrumented > plain+500 {
		t.Errorf("collector + audit run allocates %v, plain run %v: over the +500 budget", instrumented, plain)
	}
}
