package sim

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/journey"
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

// TestInstrumentTicksAllocateNothing: on a warm engine, collector and
// journey recorder, in the middle of a run with traffic flowing, one whole
// audit point (full, and checking only what changed) of an auditor built
// as the engine builds it, one whole sampler tick and the closing of an
// RREP-WAIT window must not allocate — a per-tick allocation times 49
// nodes times 300 ticks is what made "everything on" cost 3× a plain run.
// Nor may the route events of the whole second run: they are the first
// run's again, recorded into the storage it grew.
func TestInstrumentTicksAllocateNothing(t *testing.T) {
	sc := instrumentedScenario()
	e := NewEngine()
	col := metrics.NewCollector(100 * des.Millisecond)
	rec := journey.NewRecorder(1, true)
	if _, err := e.RunJourney(sc, nil, col, rec); err != nil { // warm engine, collector and recorder
		t.Fatal(err)
	}
	if len(rec.ReplySelections()) == 0 {
		t.Fatal("the warm-up run closed no RREP-WAIT window")
	}
	firstRoutes := len(rec.RouteEvents())
	if firstRoutes == 0 {
		t.Fatal("the warm-up run recorded no route events")
	}
	routeStore := &rec.RouteEvents()[0]

	var fullAllocs, incAllocs, sampleAllocs, replyAllocs float64
	var auditErr error
	TestHookPrepared = func(simk *des.Sim, nodes []*node.Node, _ Scenario) {
		simk.AtCall(sc.Warmup+sc.Measure/2+des.Microsecond, des.Func(func() {
			a := new(auditor)
			a.reset(e, sc.Warmup+sc.Measure)
			fullAllocs = testing.AllocsPerRun(10, func() { a.check(true) })
			incAllocs = testing.AllocsPerRun(10, func() { a.check(false) })
			auditErr = a.Err()
			// The run is half over, so the warm collector has room for
			// these extra ticks.
			s := &sampler{e: e, col: col}
			sampleAllocs = testing.AllocsPerRun(10, func() { s.HandleEvent(0, 0) })
			// The warm-up run sized the candidate slab for every window
			// this run closes; these windows add a few more each.
			replyAllocs = testing.AllocsPerRun(10, func() {
				now := simk.Now()
				rec.OnReplyCandidate(now, 1, 2, 99, 3, 2.5, 2)
				rec.OnReplyCandidate(now, 1, 2, 99, 4, 3.5, 3)
				rec.OnReplyClose(now, 1, 2, 99, 3, 2.5, 2)
			})
		}), 0, 0)
	}
	defer func() { TestHookPrepared = nil }()
	if _, err := e.RunJourney(sc, nil, col, rec); err != nil {
		t.Fatal(err)
	}
	if auditErr != nil {
		t.Fatalf("mid-run audit point: %v", auditErr)
	}
	if fullAllocs != 0 || incAllocs != 0 {
		t.Errorf("one audit point allocates %v times in full, %v times checking what changed, want 0", fullAllocs, incAllocs)
	}
	if sampleAllocs != 0 {
		t.Errorf("one sampler tick allocates %v times, want 0", sampleAllocs)
	}
	if replyAllocs != 0 {
		t.Errorf("closing an RREP-WAIT window on a warm recorder allocates %v times, want 0", replyAllocs)
	}
	// Had the route events' storage grown, its first element would have
	// moved.
	if n := len(rec.RouteEvents()); n != firstRoutes || &rec.RouteEvents()[0] != routeStore {
		t.Errorf("second run: %d route events (first run %d), storage reused %v",
			n, firstRoutes, &rec.RouteEvents()[0] == routeStore)
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
