package sim

import (
	"bytes"
	"math"
	"testing"

	"clnlr/internal/core"
	"clnlr/internal/des"
	"clnlr/internal/journey"
	"clnlr/internal/routing"
)

// journeyScenario is the shared operating point for the journey golden
// suite: session churn keeps route discovery (and hence decision
// provenance) active during the measurement window.
func journeyScenario(scheme Scheme) Scenario {
	sc := quickScenario().WithScheme(scheme)
	sc.Warmup = 2 * des.Second
	sc.Measure = 8 * des.Second
	sc.SessionTime = 3 * des.Second
	return sc
}

func withChurn(sc *Scenario) {
	sc.Faults.MeanUpTime = 4 * des.Second
	sc.Faults.MeanDownTime = 2 * des.Second
	sc.Faults.Link.MeanGood = 2 * des.Second
	sc.Faults.Link.MeanBad = 500 * des.Millisecond
	sc.Faults.Link.LossBad = 0.8
	sc.Faults.Link.LossGood = 0.02
}

// TestJourneyDoesNotPerturbRun is the zero-perturbation half of the
// journey contract: arming the recorder must not change a single bit of
// the run's Result — hooks never schedule events, and the one stream
// interaction (the CLNLR forwarding draw) consumes exactly what the
// uninstrumented path does. Checked across schemes, fault configurations
// and warm/cold engines.
func TestJourneyDoesNotPerturbRun(t *testing.T) {
	configs := map[string]func(*Scenario){
		"clean":          func(sc *Scenario) {},
		"churn-impaired": withChurn,
	}
	for name, mut := range configs {
		for _, scheme := range []Scheme{SchemeCLNLR, SchemeFlood} {
			t.Run(name+"/"+string(scheme), func(t *testing.T) {
				sc := journeyScenario(scheme)
				mut(&sc)

				plain, err := NewEngine().Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				rec := journey.NewRecorder(2, true)
				eng := NewEngine()
				cold, err := eng.RunJourney(sc, nil, nil, rec)
				if err != nil {
					t.Fatal(err)
				}
				if plain != cold {
					t.Errorf("journey tracing changed the run:\n  plain  %+v\n  traced %+v", plain, cold)
				}
				warm, err := eng.RunJourney(sc, nil, nil, rec)
				if err != nil {
					t.Fatal(err)
				}
				if plain != warm {
					t.Errorf("warm traced run diverged:\n  plain %+v\n  warm  %+v", plain, warm)
				}
			})
		}
	}
}

// journeyArtifacts captures the recorder's byte-level output for one run.
type journeyArtifacts struct {
	result    Result
	journeys  string
	decisions string
}

func runJourneyArtifacts(t *testing.T, e *Engine, sc Scenario, rec *journey.Recorder) journeyArtifacts {
	t.Helper()
	r, err := e.RunJourney(sc, nil, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	var jb, db bytes.Buffer
	if err := rec.WriteJourneysNDJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteDecisionsNDJSON(&db); err != nil {
		t.Fatal(err)
	}
	return journeyArtifacts{result: r, journeys: jb.String(), decisions: db.String()}
}

// TestGoldenJourneyNDJSONDeterminism extends the determinism contract to
// the tracer's outputs: journeys and decision provenance must be
// byte-identical across warm/cold engines and across the radio
// fast/reference paths, including under fault injection.
func TestGoldenJourneyNDJSONDeterminism(t *testing.T) {
	sc := journeyScenario(SchemeCLNLR)
	withChurn(&sc)

	eng := NewEngine()
	rec := journey.NewRecorder(2, true)
	cold := runJourneyArtifacts(t, eng, sc, rec)
	warm := runJourneyArtifacts(t, eng, sc, rec)

	slow := runJourneyArtifacts(t, referenceEngine(), sc, journey.NewRecorder(2, true))

	if cold.journeys == "" {
		t.Fatal("no journeys recorded")
	}
	if cold.decisions == "" {
		t.Fatal("no decision provenance recorded")
	}
	check := func(label string, other journeyArtifacts) {
		t.Helper()
		if cold.result != other.result {
			t.Errorf("%s Result diverged", label)
		}
		if cold.journeys != other.journeys {
			t.Errorf("%s journeys NDJSON diverged", label)
		}
		if cold.decisions != other.decisions {
			t.Errorf("%s decisions NDJSON diverged", label)
		}
	}
	check("warm", warm)
	check("reference-radio", slow)
}

// TestJourneySpansTelescope is the exact-decomposition half of the
// contract: for every closed journey — delivered, dropped or unresolved —
// the per-hop integer-ns spans sum to done − created exactly. On the
// fault-free configuration the delivered set additionally reconciles
// one-to-one with the run's end-to-end delay measurement; under fault
// injection an ACK loss can fork a packet (the source re-buffers a copy
// whose twin already moved on), the tracer follows exactly one physical
// copy, and the copy it follows may die while the twin delivers — so
// there the tracer's delivered count is only a lower bound.
func TestJourneySpansTelescope(t *testing.T) {
	for _, mode := range []string{"clean", "churn-impaired"} {
		t.Run(mode, func(t *testing.T) {
			sc := journeyScenario(SchemeCLNLR)
			if mode != "clean" {
				withChurn(&sc)
			}
			rec := journey.NewRecorder(1, false)
			r, err := NewEngine().RunJourney(sc, nil, nil, rec)
			if err != nil {
				t.Fatal(err)
			}
			js := rec.Journeys()
			if len(js) == 0 {
				t.Fatal("no journeys recorded")
			}
			var delivered uint64
			var delaySum float64
			for _, j := range js {
				var sum int64
				attempts := 0
				for i := range j.Hops {
					h := &j.Hops[i]
					sum += h.RoutingNs + h.QueueNs + h.AccessNs + h.RetryNs + h.AirNs
					attempts += j.Hops[i].Attempts
				}
				if sum != j.DoneNs-j.CreatedNs {
					t.Fatalf("uid %d (%s): spans sum to %d ns, end-to-end is %d ns",
						j.UID, j.Outcome, sum, j.DoneNs-j.CreatedNs)
				}
				if j.Outcome == journey.OutcomeDelivered {
					delivered++
					delaySum += float64(j.DoneNs-j.CreatedNs) / 1e9
					if len(j.Hops) == 0 || attempts < len(j.Hops) {
						t.Fatalf("uid %d: %d hops with %d attempts", j.UID, len(j.Hops), attempts)
					}
				}
			}
			// With every flow sampled, each originated packet opens exactly
			// one journey.
			if uint64(len(js)) != r.Sent {
				t.Fatalf("tracer opened %d journeys, run sent %d", len(js), r.Sent)
			}
			if mode == "clean" {
				if delivered != r.Delivered {
					t.Fatalf("tracer delivered %d, run delivered %d", delivered, r.Delivered)
				}
				mean := delaySum / float64(delivered)
				if diff := mean - r.MeanDelaySec; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("tracer mean delay %g s != measured %g s", mean, r.MeanDelaySec)
				}
			} else if delivered > r.Delivered {
				t.Fatalf("tracer delivered %d exceeds run delivered %d", delivered, r.Delivered)
			}
		})
	}
}

// TestGossipAdaptiveDecisions: gossip-adaptive runs CLNLR's policy, so it
// records its RREQ decisions, and each recorded p is the density-only
// curve p = clamp(0.4, 1, 0.7·min(1.6, √(6/n))) at the recorded neighbour
// count, whatever the recorded load. Recording them changes nothing.
func TestGossipAdaptiveDecisions(t *testing.T) {
	sc := journeyScenario(SchemeGossipAdaptive)
	withChurn(&sc)
	plain, err := NewEngine().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := journey.NewRecorder(4, true)
	traced, err := NewEngine().RunJourney(sc, nil, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Errorf("recording decisions changed the run:\n  plain  %+v\n  traced %+v", plain, traced)
	}
	decs := rec.RREQDecisions()
	if len(decs) == 0 {
		t.Fatal("no RREQ decisions recorded")
	}
	for i, d := range decs {
		dens := 1.6
		if d.Neighbors > 0 {
			dens = math.Min(1.6, math.Sqrt(6/float64(d.Neighbors)))
		}
		if want := math.Max(0.4, math.Min(1, 0.7*dens)); d.P != want {
			t.Fatalf("decision %d: p=%g at n=%d (NL %g, attempt %d), want %g",
				i, d.P, d.Neighbors, d.NL, d.Attempt, want)
		}
	}
}

// TestDecisionProvenanceRecompute closes the provenance loop: every
// recorded RREQ decision must be reproducible from its own inputs — the
// recorded NL and neighbour count pushed through an independently built
// CLNLR policy give back the recorded p, and the recorded draw resolves to
// the recorded outcome.
func TestDecisionProvenanceRecompute(t *testing.T) {
	sc := journeyScenario(SchemeCLNLR)
	withChurn(&sc)

	rec := journey.NewRecorder(4, true)
	if _, err := NewEngine().RunJourney(sc, nil, nil, rec); err != nil {
		t.Fatal(err)
	}
	decs := rec.RREQDecisions()
	if len(decs) == 0 {
		t.Fatal("no RREQ decisions recorded")
	}
	pol := core.Spec(routing.Config{}, sc.CLNLR).Policy().(*core.Policy)
	for i, d := range decs {
		p := pol.ForwardProbability(d.NL, d.Neighbors)
		if d.Attempt > 0 {
			p += float64(d.Attempt) * sc.CLNLR.RetryBoost
			if p > sc.CLNLR.PMax {
				p = sc.CLNLR.PMax
			}
		}
		if p != d.P {
			t.Fatalf("decision %d: recomputed p=%g from NL=%g n=%d, recorded %g",
				i, p, d.NL, d.Neighbors, d.P)
		}
		var want bool
		switch {
		case d.P <= 0:
			want = false
		case d.P >= 1:
			want = true
		default:
			if d.Draw < 0 || d.Draw >= 1 {
				t.Fatalf("decision %d: p=%g but draw=%g", i, d.P, d.Draw)
			}
			want = d.Draw < d.P
		}
		if d.Forwarded != want {
			t.Fatalf("decision %d: forwarded=%v inconsistent with p=%g draw=%g",
				i, d.Forwarded, d.P, d.Draw)
		}
	}

	sels := rec.ReplySelections()
	if len(sels) == 0 {
		t.Fatal("no RREP-WAIT selections recorded")
	}
	for i, s := range sels {
		if len(s.Candidates) == 0 {
			t.Fatalf("selection %d has no candidates", i)
		}
		// The winner must be the cheapest candidate recorded for the window
		// (ties broken by arrival order, which the slice preserves).
		best := s.Candidates[0]
		for _, c := range s.Candidates[1:] {
			if c.Cost < best.Cost {
				best = c
			}
		}
		if s.WinnerFrom != best.From || s.WinnerCost != best.Cost {
			t.Fatalf("selection %d: winner %v cost %g, cheapest candidate %v cost %g",
				i, s.WinnerFrom, s.WinnerCost, best.From, best.Cost)
		}
	}
}
