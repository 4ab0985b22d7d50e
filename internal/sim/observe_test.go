package sim

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/metrics"
)

// observedArtifacts captures everything a collector produced for one run,
// in comparable form.
type observedArtifacts struct {
	result   Result
	heatmap  string
	series   string
	counters map[string]uint64
	events   uint64
}

func runObservedArtifacts(t *testing.T, e *Engine, sc Scenario, interval des.Time) observedArtifacts {
	t.Helper()
	col := metrics.NewCollector(interval)
	r, err := e.RunJourney(sc, nil, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hm, nd bytes.Buffer
	if err := col.WriteHeatmapCSV(&hm); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteNDJSON(&nd); err != nil {
		t.Fatal(err)
	}
	return observedArtifacts{
		result:   r,
		heatmap:  hm.String(),
		series:   nd.String(),
		counters: col.Counters().Map(),
		events:   col.Events(),
	}
}

// TestMetricsDoNotPerturbRun is the overhead side of the flight-recorder
// contract: enabling collection must not change a single bit of the run's
// outcome, because sampler events only read protocol state and consume no
// randomness.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	for _, name := range []string{"clean", "churn"} {
		t.Run(name, func(t *testing.T) {
			sc := quickScenario()
			if name == "churn" {
				sc.Faults.MeanUpTime = 4 * des.Second
				sc.Faults.MeanDownTime = 2 * des.Second
			}
			plain, err := NewEngine().Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			col := metrics.NewCollector(100 * des.Millisecond)
			observed, err := NewEngine().RunJourney(sc, nil, col, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain != observed {
				t.Errorf("metrics collection changed the run:\n  plain    %+v\n  observed %+v", plain, observed)
			}
			if col.Ticks() == 0 || col.NumNodes() != plain.Nodes {
				t.Errorf("collector recorded %d ticks × %d nodes", col.Ticks(), col.NumNodes())
			}
		})
	}
}

// TestGoldenMetricsDeterminism extends the repo's determinism contract to
// the flight recorder: with metrics enabled, the heatmap CSV, the NDJSON
// series and the counter registry must be bit-identical across the radio
// fast/reference paths and across warm/cold engines — including under
// fault injection.
func TestGoldenMetricsDeterminism(t *testing.T) {
	configs := map[string]func(*Scenario){
		"two-ray-static": func(sc *Scenario) {},
		"churn-impaired": func(sc *Scenario) {
			sc.Faults.MeanUpTime = 4 * des.Second
			sc.Faults.MeanDownTime = 2 * des.Second
			sc.Faults.Link.MeanGood = 2 * des.Second
			sc.Faults.Link.MeanBad = 500 * des.Millisecond
			sc.Faults.Link.LossBad = 0.8
			sc.Faults.Link.LossGood = 0.02
		},
	}
	for name, mut := range configs {
		for _, scheme := range []Scheme{SchemeCLNLR, SchemeFlood} {
			t.Run(name+"/"+string(scheme), func(t *testing.T) {
				sc := quickScenario().WithScheme(scheme)
				sc.Warmup = 2 * des.Second
				sc.Measure = 8 * des.Second
				mut(&sc)

				eng := NewEngine()
				cold := runObservedArtifacts(t, eng, sc, 100*des.Millisecond)
				warm := runObservedArtifacts(t, eng, sc, 100*des.Millisecond)

				slow := runObservedArtifacts(t, referenceEngine(), sc, 100*des.Millisecond)

				check := func(label string, other observedArtifacts) {
					t.Helper()
					if cold.result != other.result {
						t.Errorf("%s Result diverged:\n  cold %+v\n  %s %+v", label, cold.result, label, other.result)
					}
					if cold.heatmap != other.heatmap {
						t.Errorf("%s heatmap CSV diverged", label)
					}
					if cold.series != other.series {
						t.Errorf("%s NDJSON series diverged", label)
					}
					if !reflect.DeepEqual(cold.counters, other.counters) {
						t.Errorf("%s counters diverged:\n  cold %v\n  %s %v", label, cold.counters, label, other.counters)
					}
				}
				check("warm", warm)
				check("reference", slow)
				if cold.events != warm.events {
					t.Errorf("warm engine executed %d events, cold %d", warm.events, cold.events)
				}
			})
		}
	}
}

// TestObservedCountersPlausible sanity-checks the folded registry: a
// loaded run must show control and data traffic, and a churned run must
// register fault events.
func TestObservedCountersPlausible(t *testing.T) {
	sc := quickScenario()
	sc.Faults.MeanUpTime = 4 * des.Second
	sc.Faults.MeanDownTime = 2 * des.Second
	col := metrics.NewCollector(100 * des.Millisecond)
	r, err := NewEngine().RunJourney(sc, nil, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := col.Counters()
	for _, name := range []string{
		"routing/rreq-originated", "routing/data-delivered",
		"mac/tx-data", "mac/tx-broadcast", "radio/transmissions",
		"fault/crash-events",
	} {
		if reg.Get(name) == 0 {
			t.Errorf("counter %s is zero on a loaded churned run", name)
		}
	}
	// Counters are raw layer counts over the measurement window, so they
	// can differ from the flow-conservation Result by packets in flight at
	// the window edges — only rough agreement is guaranteed.
	if got := reg.Get("routing/data-delivered"); got < r.Delivered/2 {
		t.Errorf("routing/data-delivered %d implausibly low vs Result.Delivered %d", got, r.Delivered)
	}
	if col.Events() == 0 || col.SimTime() != sc.Warmup+sc.Measure {
		t.Errorf("run envelope not recorded: events=%d simTime=%v", col.Events(), col.SimTime())
	}
}

// TestBuildReport checks the RunReport bundles identity, envelope,
// counters and metrics.
func TestBuildReport(t *testing.T) {
	sc := quickScenario()
	col := metrics.NewCollector(200 * des.Millisecond)
	r, err := NewEngine().RunJourney(sc, nil, col, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(sc, r, col)
	if rep.Fingerprint == "" || rep.Fingerprint != sc.Fingerprint() {
		t.Errorf("bad fingerprint %q", rep.Fingerprint)
	}
	mut := sc
	mut.Seed++
	if mut.Fingerprint() == sc.Fingerprint() {
		t.Error("fingerprint insensitive to scenario changes")
	}
	if rep.Scheme != string(sc.Scheme) || rep.Nodes != r.Nodes || rep.Seed != sc.Seed {
		t.Errorf("identity fields wrong: %+v", rep)
	}
	if rep.SimSeconds != (sc.Warmup + sc.Measure).Seconds() {
		t.Errorf("sim seconds %v", rep.SimSeconds)
	}
	if rep.Samples != col.Ticks() || rep.Samples == 0 {
		t.Errorf("samples %d, ticks %d", rep.Samples, col.Ticks())
	}
	if len(rep.Counters) == 0 {
		t.Error("no counters in report")
	}
	if rep.Metrics["pdr"] != r.PDR || rep.Metrics["sent"] != float64(r.Sent) {
		t.Errorf("metrics map wrong: %v", rep.Metrics)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"counters"`)) {
		t.Error("JSON output missing counters")
	}
}

// TestSamplerCoversRun pins the sampling schedule: ticks at 0, interval,
// …, through the run end inclusive.
func TestSamplerCoversRun(t *testing.T) {
	sc := quickScenario()
	sc.Warmup = 2 * des.Second
	sc.Measure = 8 * des.Second
	interval := 500 * des.Millisecond
	col := metrics.NewCollector(interval)
	if _, err := NewEngine().RunJourney(sc, nil, col, nil); err != nil {
		t.Fatal(err)
	}
	end := sc.Warmup + sc.Measure
	want := int(end/interval) + 1
	if col.Ticks() != want {
		t.Fatalf("got %d ticks, want %d", col.Ticks(), want)
	}
	// The heatmap's header row lists every sampling instant in seconds.
	var heatmap bytes.Buffer
	if err := col.WriteHeatmapCSV(&heatmap); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(heatmap.String(), "\n")
	times := strings.Split(header, ",")[1:]
	if last := strconv.FormatFloat(end.Seconds(), 'g', -1, 64); times[0] != "0" || times[len(times)-1] != last {
		t.Errorf("tick range [%s, %s], want [0, %s]", times[0], times[len(times)-1], last)
	}
}

// eagerTicks is the sampling schedule the des train replaced, kept as the
// reference: n separate AtCalls at t = 0, interval, …, all queued when the
// sampler starts.
func eagerTicks(simk *des.Sim, s *sampler, interval des.Time, n int) {
	for k := 0; k < n; k++ {
		simk.AtCall(des.Time(k)*interval, s, 0, 0)
	}
}

// TestSamplerTrainMatchesEagerTicks: the sampler's train records the same
// heatmap and series bytes as the eager reference, and the run the same
// Result, event count and counters but one — des/pending-hw, which no
// longer counts the recorder's own future ticks. The scenario has churn,
// burst loss and waypoint mobility, and the 100 ms interval shares every
// instant with the load clock, so ticks interleave with mobility steps,
// faults and protocol timers at equal times.
func TestSamplerTrainMatchesEagerTicks(t *testing.T) {
	sc := DefaultScenario()
	sc.Warmup, sc.Measure, sc.SessionTime = 2*des.Second, 10*des.Second, 5*des.Second
	sc.MobilitySpeed = 10
	sc.Faults.MeanUpTime = 6 * des.Second
	sc.Faults.MeanDownTime = 2 * des.Second
	sc.Faults.Link.MeanGood = 2 * des.Second
	sc.Faults.Link.MeanBad = 200 * des.Millisecond
	sc.Faults.Link.LossBad = 0.8

	t.Cleanup(func() { scheduleTicks = trainTicks })
	for _, interval := range []des.Time{100 * des.Millisecond, 250 * des.Millisecond} {
		eng := NewEngine()
		train := runObservedArtifacts(t, eng, sc, interval)
		trainHW := train.counters["des/pending-hw"]
		scheduleTicks = eagerTicks
		eager := runObservedArtifacts(t, eng, sc, interval)
		scheduleTicks = trainTicks
		eagerHW := eager.counters["des/pending-hw"]

		if train.result != eager.result || train.events != eager.events {
			t.Errorf("interval %v: the train moved the run: events %d vs %d\n  train %+v\n  eager %+v",
				interval, train.events, eager.events, train.result, eager.result)
		}
		if train.heatmap != eager.heatmap || train.series != eager.series {
			t.Errorf("interval %v: heatmap or series bytes differ between the train and eager ticks", interval)
		}
		delete(train.counters, "des/pending-hw")
		delete(eager.counters, "des/pending-hw")
		if !reflect.DeepEqual(train.counters, eager.counters) {
			t.Errorf("interval %v: counters diverged:\n  train %v\n  eager %v", interval, train.counters, eager.counters)
		}
		if ticks := int((sc.Warmup+sc.Measure)/interval) + 1; trainHW >= eagerHW || eagerHW-trainHW >= uint64(ticks) {
			t.Errorf("interval %v: pending high-water %d under the train, %d eager; want lower by fewer than %d ticks",
				interval, trainHW, eagerHW, ticks)
		}
	}
}
