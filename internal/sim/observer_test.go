package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/metrics"
)

// primitiveRun runs sc on a fresh engine, assembling the instruments and
// the report from the primitives (NewCollector, NewRecorder, RunJourney,
// BuildReport, NewAgg + Aggregate, Canonical) the way the benchmark
// harness does. It returns the Result and the bytes an observed run must
// reproduce: the canonical report with a collector, the journey report
// alone without one.
func primitiveRun(t *testing.T, sc Scenario, opts ObserveOptions) (Result, []byte) {
	t.Helper()
	var col *metrics.Collector
	if opts.Collect {
		col = metrics.NewCollector(opts.Interval)
	}
	var rec *journey.Recorder
	if opts.JourneyEvery > 0 {
		rec = journey.NewRecorder(opts.JourneyEvery, true)
	}
	r, err := NewEngine().RunJourney(sc, nil, col, rec)
	if err != nil {
		t.Fatal(err)
	}
	var agg *journey.Agg
	if rec != nil {
		agg = journey.NewAgg(rec.EveryN())
		rec.Aggregate(agg)
	}
	if col == nil {
		return r, journeyBytes(t, agg)
	}
	rep := BuildReport(sc, r, col)
	if agg != nil {
		rep.Journey = agg.Report()
	}
	var buf bytes.Buffer
	if err := rep.Canonical().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

// observedRun is primitiveRun's counterpart on o.
func observedRun(t *testing.T, o *Observer, sc Scenario, opts ObserveOptions) (Result, []byte) {
	t.Helper()
	r, err := o.Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Collect {
		return r, journeyBytes(t, o.Journey())
	}
	var buf bytes.Buffer
	if err := o.Report(sc, r).Canonical().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

func journeyBytes(t *testing.T, agg *journey.Agg) []byte {
	t.Helper()
	if agg == nil {
		return nil
	}
	b, err := json.Marshal(agg.Report())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestObserverMatchesFreshEngine: one Observer, its options changed from
// run to run (collector off and on, sampling interval 100 ms and 250 ms,
// journey divisor 3, 1, 0 and back) over changing scenarios, must give each
// run the bytes of a fresh engine whose instruments and report are built
// from the primitives — the one observed-run path is the benchmark
// harness's recipe. An instrument is made again only when the previous
// run went without it or, for the recorder, had another divisor.
func TestObserverMatchesFreshEngine(t *testing.T) {
	const ms = des.Millisecond
	steps := []struct {
		sc   Scenario
		opts ObserveOptions
	}{
		{quickScenario(), ObserveOptions{JourneyEvery: 3}},
		{quickScenario().WithScheme(SchemeFlood), ObserveOptions{Collect: true, Interval: DefaultSampleInterval, JourneyEvery: 3}},
		{churnScenario(), ObserveOptions{Collect: true, Interval: 250 * ms, JourneyEvery: 1}},
		{quickScenario(), ObserveOptions{}},
		{churnScenario().WithScheme(SchemeGossip), ObserveOptions{Collect: true, Interval: DefaultSampleInterval, JourneyEvery: 1}},
		{quickScenario(), ObserveOptions{JourneyEvery: 3}},
		{quickScenario().WithScheme(SchemeCounter), ObserveOptions{Collect: true, Interval: 250 * ms, JourneyEvery: 3}},
		{churnScenario(), ObserveOptions{Collect: true, Interval: 250 * ms}},
	}
	var o Observer
	var col *metrics.Collector
	var rec *journey.Recorder
	for i, s := range steps {
		s.sc.Seed += uint64(i)
		wantR, want := primitiveRun(t, s.sc, s.opts)
		gotR, got := observedRun(t, &o, s.sc, s.opts)
		if gotR != wantR {
			t.Errorf("step %d: Result differs from a fresh engine's:\n  got  %+v\n  want %+v", i, gotR, wantR)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("step %d: observed bytes differ from the primitives' (%d vs %d bytes)", i, len(got), len(want))
		}
		if (o.Collector() != nil) != s.opts.Collect || (o.Recorder() != nil) != (s.opts.JourneyEvery > 0) {
			t.Errorf("step %d: instruments %v, %v for options %+v", i, o.Collector(), o.Recorder(), s.opts)
		}
		if col != nil && o.Collector() != nil && o.Collector() != col {
			t.Errorf("step %d: collector made again", i)
		}
		if rec != nil && o.Recorder() != nil && (o.Recorder() != rec) != (rec.EveryN() != s.opts.JourneyEvery) {
			t.Errorf("step %d: recorder made again = %v, divisor %d after %d", i, o.Recorder() != rec, s.opts.JourneyEvery, rec.EveryN())
		}
		col, rec = o.Collector(), o.Recorder()
	}
}

// TestObserverRunAfterPanic: a run that panics leaves no engine to reuse,
// so the next run is on a new one and gives a cold run's bytes.
func TestObserverRunAfterPanic(t *testing.T) {
	sc := quickScenario()
	opts := ObserveOptions{Collect: true, Interval: DefaultSampleInterval, JourneyEvery: 2}
	var o Observer
	observedRun(t, &o, sc.WithScheme(SchemeFlood), opts)
	warm := o.eng

	TestHookRun = func(Scenario) { panic("injected") }
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the hooked run did not panic")
			}
		}()
		o.Run(sc, opts)
	}()
	TestHookRun = nil
	if o.eng != nil {
		t.Fatal("the engine of a panicked run was kept for reuse")
	}

	wantR, want := primitiveRun(t, sc, opts)
	gotR, got := observedRun(t, &o, sc, opts)
	if o.eng == warm {
		t.Error("the run after a panic reused the engine that panicked")
	}
	if gotR != wantR || !bytes.Equal(got, want) {
		t.Error("the run after a panic differs from a cold run")
	}
}
